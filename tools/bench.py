"""Collect one benchmark record into a BENCH_<n>.json file.

From the root of a source checkout:

    python3 tools/bench.py --out BENCH_<n>.json

It runs ``perfbench/run.py`` with ``--trace 0`` once for each of the four
workloads, then once with ``--workload all --trace 1`` for the per-layer
figures, all on seed 1729 with ``--seconds 15``, so that every record is
taken with the same settings.  It also times the Tier-1 tests, hashes the
gate's two renderings (``parkseq verify --suite all``, with ``--json`` and
without it), counts the lines of
``src/parkseq/*.py``, in all and as code, docstring, comment and blank
lines (summed and per module), and reads the commit and the uncommitted
paths, so that two records can be told apart.  Every step runs in a fresh
process; the record is written only if all of them finish.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gate", "listing", "counting", "queries")
SEED = 1729
SECONDS = 15.0
GATE_COMMAND = ["-c", "import sys; from parkseq.cli import main; sys.exit(main())",
                "verify", "--suite", "all", "--json"]
TIER1_COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SPLIT = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _run(args, env=None):
    """Run python with ``args`` at the checkout root; fail on a nonzero exit."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, check=False)
    if done.returncode:
        raise SystemExit(f"{' '.join(args[:2])} exited {done.returncode}:\n"
                         f"{done.stderr.decode(errors='replace')[-2000:]}")
    return done.stdout


def _perfbench(workload, trace):
    out = _run(["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", str(SECONDS), "--trace", str(trace)])
    return json.loads(out.decode().strip().splitlines()[-1])


def _source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _tier1():
    start = time.perf_counter()
    out = _run(TIER1_COMMAND, env=_source_env()).decode()
    seconds = time.perf_counter() - start
    summary = out.strip().splitlines()[-1]
    passed = re.search(r"(\d+) passed", summary)
    return {"seconds": round(seconds, 2), "passed": int(passed.group(1)) if passed else 0,
            "summary": summary}


def _gate_digest():
    """The sha256 of the gate document and of the gate's text, and the document's record count."""
    out = _run(GATE_COMMAND, env=_source_env())
    text = _run(GATE_COMMAND[:-1], env=_source_env())  # the same request without --json
    return {"sha256": hashlib.sha256(out).hexdigest(), "text_sha256": hashlib.sha256(text).hexdigest(),
            "records": len(json.loads(out)["records"])}


def _src_lines():
    """Line count of the library modules, as ``wc -l src/parkseq/*.py`` totals it."""
    return sum(path.read_bytes().count(b"\n") for path in ROOT.glob("src/parkseq/*.py"))


def _split(source):
    """How many of ``source``'s lines are code, docstring, comment and blank.

    A docstring line is one of the string that opens a module, class or
    function body, blank lines inside it included.  A comment line holds a
    comment and no code, and a blank line holds nothing else; every other
    line is code, a line of code with a trailing comment too.
    """
    kinds = ["code" if line.strip() else "blank" for line in source.splitlines()]
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and not token.line[:token.start[1]].strip():
            kinds[token.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            for row in range(first.lineno - 1, first.end_lineno):
                kinds[row] = "docstring"
    return {kind: kinds.count(kind) for kind in SPLIT}


def _src_split_by_module():
    """:func:`_split` of each library module, keyed by its file name."""
    return {path.name: _split(path.read_text(encoding="utf-8"))
            for path in sorted(ROOT.glob("src/parkseq/*.py"))}


def _src_split(by_module):
    """``by_module`` summed over the modules; its counts add up to ``src_lines``."""
    return {kind: sum(split[kind] for split in by_module.values()) for kind in SPLIT}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def _uncommitted(status):
    """The paths in unstripped ``git status --porcelain`` output.

    Each line is two status letters, a space and the path; the first letter
    is often a space, so stripping the output would cut a path's first letter.
    """
    return [line[3:] for line in status.splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write, BENCH_<n>.json")
    args = parser.parse_args(argv)

    record = {
        "commit": _git("rev-parse", "HEAD").strip(),
        "uncommitted": _uncommitted(_git("status", "--porcelain")),
        "seed": SEED,
        "seconds": SECONDS,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "system": platform.system(), "machine": platform.machine()},
        "end_to_end": {},
    }
    for workload in WORKLOADS:
        print(f"perfbench {workload} --trace 0", file=sys.stderr)
        record["end_to_end"][workload] = _perfbench(workload, 0)
    print("perfbench all --trace 1", file=sys.stderr)
    record["per_layer"] = _perfbench("all", 1)
    print("tier-1 tests", file=sys.stderr)
    record["tier1"] = _tier1()
    print("gate digest", file=sys.stderr)
    record["gate"] = _gate_digest()
    record["src_lines"] = _src_lines()
    by_module = _src_split_by_module()
    record["src_split"] = _src_split(by_module)
    record["src_split_by_module"] = by_module
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
