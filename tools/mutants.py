"""Mutation survey of the lines a change adds to the parking kernel and its callers.

From the root of a source checkout:

    python3 tools/mutants.py --base REV --work DIR

It reads the lines that ``git diff REV`` adds (the working tree against
REV) to the functions in ``TARGETS``, those of ``src/parkseq/core.py``,
``classify.py`` and ``enumeration.py`` that apply the trailer's shift or
undo it, keeps the lines that build the shifted street's mask or name the
shift (``lift`` or ``z``), and makes one mutant per token on them: an
integer constant c becomes c - 1 (0 becomes 1), ``<`` and ``<=`` (``>``
and ``>=``) are swapped, and so are ``+`` and ``-``.  At most ``LIMIT``
mutants are made, in module and line order.

Each mutant is written into a copy of the checkout under DIR, never into the
checkout itself.  It is killed when the gate (``parkseq verify --suite
all``) fails, or else Tier-1 (``pytest -x``) does, or either outruns
``TIMEOUT_S`` seconds: a hang counts as a kill.  The survivors are printed
by module and line; those listed in ``EQUIVALENT``, which no input can tell
from the original, are marked so and do not count against the kill rate.
One mutant runs at a time, so the survey takes minutes, not seconds.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# module: the functions whose added lines are mutated
TARGETS = {
    "core": ("_empty_street", "simulate"),
    "classify": ("is_parking_sequence",),
    "enumeration": ("_unshifted", "_lifted_values", "_lifted_count", "_lifted_steps"),
}
GATE = ["-c", "import sys; from parkseq.cli import main; sys.exit(main())", "verify", "--suite", "all"]
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
LIMIT = 50  # mutants per survey
TIMEOUT_S = 300  # per run; Tier-1 takes about a minute on a 2-vCPU host
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "+": "-", "-": "+"}
# (module, stripped source line, column in it, old token, new token): why no input
# tells the mutant apart.
# Bit 0 of the shifted street's mask is never set, so a shifted preference of 0
# finds the same first empty spot as 1, and the clamp may send pref == lift to either.
_CLAMPS = (("core", "pref = pref - lift if pref > lift else 1  # the shift; inline, as in the deciders"),
           ("classify", "free = _park(free, pref - lift if pref > lift else 1, size)  # the shift, inline"))
EQUIVALENT = {
    **{(*clamp, clamp[1].index(">"), ">", ">="): "pref == lift now gives 0, which parks as 1 does"
       for clamp in _CLAMPS},
    **{(*clamp, clamp[1].index("1"), "1", "0"): "a preference up to z now gives 0, which parks as 1 does"
       for clamp in _CLAMPS},
    ("enumeration", "if z == 1:", 8, "1", "0"):
        "a shortcut: at z = 1 the general expansion gives the same multisets",
    ("enumeration", "known = len(found) + (lift if found and found[0] == 1 else 0)", 59, "0", "1"):
        "a last car's steps are counted here only when it is the only car, and a lone "
        "car parks from preference 1, so its steps always start at 1",
}


def target_lines(base, module, source):
    """The lines that ``git diff base`` adds to the ``TARGETS`` functions of a module."""
    diff = subprocess.run(["git", "diff", "-U0", base, "--", f"src/parkseq/{module}.py"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout
    added = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.M):
        first = int(start)
        added.update(range(first, first + (1 if count == "" else int(count))))
    inside = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in TARGETS[module]:
            inside.update(range(node.body[0].lineno, node.end_lineno + 1))
    text = source.splitlines()
    return {row for row in added & inside if re.search(r"\b(lift|z)\b|<<", text[row - 1])}


def mutants(source, lines):
    """(line, column, old token, new token) for each mutant of the given lines."""
    out = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        row, col = token.start
        if row not in lines:
            continue
        if token.type == tokenize.NUMBER and token.string.isdigit():
            value = int(token.string)
            out.append((row, col, token.string, str(value - 1 if value else 1)))
        elif token.type == tokenize.OP and token.string in SWAPS:
            out.append((row, col, token.string, SWAPS[token.string]))
    return out


def mutate(source, row, col, old, new):
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    assert line[col:col + len(old)] == old, (row, col, old)
    lines[row - 1] = line[:col] + new + line[col + len(old):]
    return "".join(lines)


def killed(tree):
    """Does the gate, or else Tier-1, fail (or hang) on this tree?  Which one did."""
    env = dict(os.environ, PYTHONPATH="src")
    for name, args in (("gate", GATE), ("tier-1", TIER1)):
        try:
            done = subprocess.run([sys.executable, *args], cwd=tree, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        except subprocess.TimeoutExpired:
            return f"{name} (timeout)"
        if done.returncode:
            return name
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision the change is read against")
    parser.add_argument("--work", required=True, type=Path, help="directory for the mutated copy")
    args = parser.parse_args(argv)
    tree = args.work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", "BENCH_*.json"))
    if killed(tree):
        raise SystemExit("error: the unmutated copy fails its own checks")
    plan = []
    for module in TARGETS:
        source = (ROOT / "src" / "parkseq" / f"{module}.py").read_text()
        plan += [(module, source, m) for m in mutants(source, target_lines(args.base, module, source))]
    plan = plan[:LIMIT]
    survivors, kills = [], 0
    for number, (module, source, (row, col, old, new)) in enumerate(plan, start=1):
        path = tree / "src" / "parkseq" / f"{module}.py"
        path.write_text(mutate(source, row, col, old, new))
        try:
            by = killed(tree)
        finally:
            path.write_text(source)
        raw = source.splitlines()[row - 1]
        line, col = raw.strip(), col - (len(raw) - len(raw.lstrip()))
        print(f"[{number}/{len(plan)}] {module}:{row} {old!r} -> {new!r}: "
              f"{'killed by ' + by if by else 'SURVIVED'}", flush=True)
        if by:
            kills += 1
        else:
            survivors.append((module, row, line, col, old, new))
    print(f"\n{len(plan)} mutants, {kills} killed, {len(survivors)} survived")
    equivalent = 0
    for module, row, line, col, old, new in survivors:
        why = EQUIVALENT.get((module, line, col, old, new))
        equivalent += why is not None
        mark = f"equivalent: {why}" if why else "real"
        print(f"  {module}.py:{row}  {old!r} -> {new!r}  [{mark}]  {line}")
    real = len(plan) - equivalent
    print(f"kill rate {kills}/{real} of the mutants that differ from the original"
          + (f" ({equivalent} equivalent)" if equivalent else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
