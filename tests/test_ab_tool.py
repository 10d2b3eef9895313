"""The interleaved A/B script ``tools/ab.py``, run on this checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(*mode):
    done = subprocess.run(
        [sys.executable, "tools/ab.py", ".", ".", "--workload", "counting", "--pairs", "1", *mode],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def _check_table(lines):
    assert lines[-1] == "failed ops: A 0, B 0"
    assert lines[3].split() == ["span", "A", "ms", "B", "ms", "B/A", "A", "op", "ms", "B", "op", "ms",
                                "op", "B/A"]
    rows = {line.split()[0]: list(map(float, line.split()[1:])) for line in lines[4:-1]}
    assert "count.count_ips_determinant" in rows and "pass" in rows
    for a_ms, b_ms, ratio, a_op, b_op, op_ratio in rows.values():
        assert a_ms > 0 and b_ms > 0
        assert ratio == ratio and op_ratio == op_ratio  # each B/A is a number, not nan
        # a span's slowest op takes no longer than the whole span
        assert 0 < a_op <= a_ms and 0 < b_op <= b_ms
    # the pass's slowest op is the slowest op of some span
    assert rows["pass"][3] == max(row[3] for row in rows.values())


def test_ab_runs_the_checkout_against_itself():
    done = _ab()
    lines = done.stdout.splitlines()
    assert lines[0].startswith("workload counting  seed 1729  1 pairs x 3 passes: min of 3")
    _check_table(lines)
    # the two processes alternate, A first
    assert done.stderr.splitlines() == ["pair 1: A", "pair 1: B"]


def test_ab_runs_the_checkout_against_itself_in_one_process():
    done = _ab("--in-process")
    lines = done.stdout.splitlines()
    assert lines[0].startswith(
        "workload counting  seed 1729  1 pairs x 3 passes in one process: min of 3")
    _check_table(lines)
    assert done.stderr == ""
