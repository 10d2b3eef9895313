"""The interleaved A/B script ``tools/ab.py``, run on this checkout against itself."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _ab(*trees, env=None, workload="counting"):
    return subprocess.run(
        [sys.executable, "tools/ab.py", *trees, "--workload", workload, "--passes", "3"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300, env=env,
    )


def test_ab_runs_the_checkout_against_itself_in_one_process():
    done = _ab(".", ".")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[0].startswith("workload counting  seed 1729  3 passes in one process: ")
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


# the module a tree's self-import is put in, and the workload: the package
# loads its first at import, its second only when the gate's builder reads it.
# The tree is B, so A's ops are built, and checked, before it loads.
@pytest.mark.parametrize("module, workload", [("__init__", "counting"), ("verify", "gate")])
def test_ab_refuses_a_tree_that_imports_itself_by_name(tmp_path, module, workload):
    # with this checkout's src on the path, such a tree would be timed as this checkout
    tree = tmp_path / "tree"
    package = tree / "src" / "parkseq"
    shutil.copytree(ROOT / "src" / "parkseq", package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / f"{module}.py", "a", encoding="utf-8") as source:
        source.write("\nimport parkseq\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = _ab(".", str(tree), env=env, workload=workload)
    assert done.returncode != 0
    assert done.stdout == ""
    foreign = (ROOT / "src" / "parkseq" / "__init__.py").resolve()
    assert done.stderr == (f"error: loading {tree.resolve()} imported parkseq from {foreign},"
                           f" not from {package.resolve()}\n")


def test_ab_help_prints_usage():
    done = subprocess.run([sys.executable, "tools/ab.py", "--help"], cwd=ROOT, capture_output=True,
                          text=True, check=False, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("usage: ab.py ")
    assert "TREE_A TREE_B" in done.stdout
