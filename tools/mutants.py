"""Mutation survey of the parking kernel, the bijection kernels and their callers.

From the root of a source checkout:

    python3 tools/mutants.py --base REV --work DIR

Each function in ``TARGETS`` is marked with one of two ways to survey it.
A ``WHOLE`` function has every line of its body mutated; the bijection
kernels of ``src/parkseq/biject.py``, the "every ordering parks" sweep
of ``src/parkseq/classify.py``, the lattice-path count and the
u-parking-function recurrence of ``src/parkseq/count.py``, the walk, its
lift and its two readers in ``src/parkseq/enumeration.py``, the one check
of both bijections in ``src/parkseq/verify.py``, the budget guard of
``src/parkseq/core.py``, and the request parse, the per-command argument
builder and ``run`` of ``src/parkseq/cli.py`` are marked so.  An ``ADDED``
function has only the lines that ``git diff REV`` adds to it (the working tree
against REV) mutated, and of those only the lines that build the shifted
street's mask or name the trailer or its shift (``lift``, ``z`` or
``trailer_z``); the other functions of ``core.py``, ``classify.py`` and
``enumeration.py`` that apply the trailer's shift or undo it are marked so.
One mutant is made per token on those lines: an integer constant c becomes
c - 1 (0 becomes 1), ``<`` and ``<=`` (``>`` and ``>=``) are swapped, and
so are ``+`` and ``-``, ``==`` and ``!=``, and ``and`` and ``or``.  At most
``LIMIT`` mutants are made, in module and line order.

Each mutant is written into a copy of the checkout under DIR, never into the
checkout itself.  It is killed when the gate (``parkseq verify --suite
all``) fails, or else Tier-1 (``pytest -x``) does, or either outruns
``TIMEOUT_S`` seconds or ``MEMORY_CAP`` bytes of address space: a hang or a
runaway allocation counts as a kill.  Without the cap, a mutant of
``_ordering_sweep``'s count-field mask grew the gate past 7 GB in 30 s.
The survivors are printed by module and line; those listed in
``EQUIVALENT``, which no input can tell from the original, are marked so
and do not count against the kill rate.  A table then gives, per module,
the mutants, those the gate kills, those only Tier-1 kills, and the
equivalent and the real survivors.
One mutant runs at a time, so the survey takes minutes, not seconds.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import resource
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WHOLE, ADDED = "whole", "added"  # every line of a function is mutated, or the added ones
# module: {function: which of its lines are mutated}
TARGETS = {
    "biject": dict.fromkeys(("_to_path", "_from_path", "_contract", "_expand"), WHOLE),
    "core": {"_guard": WHOLE, **dict.fromkeys(("_empty_street", "simulate"), ADDED)},
    "classify": {"is_parking_sequence": ADDED, "_ordering_sweep": WHOLE},
    "count": dict.fromkeys(("_lattice_paths", "_u_parking"), WHOLE),
    "enumeration": {"_unshifted": ADDED,
                    **dict.fromkeys(("_steps", "_lifted", "_count", "_spelled"), WHOLE)},
    "verify": {"_bijection": WHOLE},
    "cli": dict.fromkeys(("_parse", "_command_parser", "run"), WHOLE),
}
GATE = ["-c", "import sys; from parkseq.cli import main; sys.exit(main())", "verify", "--suite", "all"]
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
LIMIT = 160  # mutants per survey; the WHOLE functions alone make 118
# the per-module table: mutants made, killed by the gate, killed by Tier-1 only, survivors
COLUMNS = ("mutants", "gate", "tier-1", "equivalent", "real")
TIMEOUT_S = 300  # per run; Tier-1 takes about a minute on a 2-vCPU host
MEMORY_CAP = 2**30  # per run; Tier-1 peaks near 180 MB max RSS
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "+": "-", "-": "+", "==": "!=", "!=": "==",
         "and": "or", "or": "and"}
# (module, stripped source line, column in it, old token, new token): why no input
# tells the mutant apart.
# Bit 0 of the shifted street's mask is never set, so a shifted preference of 0
# finds the same first empty spot as 1, and the clamp may send pref == lift to either.
_CLAMPS = (("core", "pref = pref - lift if pref > lift else 1  # the shift; inline, as in the deciders"),
           ("classify", "free = _park(free, pref - lift if pref > lift else 1, size)  # the shift, inline"))
_SHORTCUT = "if step == 1:  # every entry is on the step-1 grid and maps to itself"
_CONTRACT_KEEP = "c if c <= trailer_z"
_EXPAND = ("return tuple([v if v <= trailer_z else trailer_z + (v - trailer_z) * step"
           " for v in values])")
_CHILDREN = "child_state = frozenset(children) if len(children) > 1 else children[0]"
EQUIVALENT = {
    ("biject", _SHORTCUT, _SHORTCUT.index("1"), "1", "0"):
        "a shortcut: at step 1 the general contraction maps every entry to itself too",
    ("biject", _CONTRACT_KEEP, _CONTRACT_KEEP.index("<="), "<=", "<"):
        "an entry equal to z is on the grid at s = 0, and contracts to z either way",
    ("biject", _EXPAND, _EXPAND.index("<="), "<=", "<"):
        "a value equal to z expands to z + 0 * step = z either way",
    **{(*clamp, clamp[1].index(">"), ">", ">="): "pref == lift now gives 0, which parks as 1 does"
       for clamp in _CLAMPS},
    **{(*clamp, clamp[1].index("1"), "1", "0"): "a preference up to z now gives 0, which parks as 1 does"
       for clamp in _CLAMPS},
    **{("enumeration", _CHILDREN, _CHILDREN.index(old), old, new):
       "one child makes a frozenset of one pair, which walks exactly as that pair does"
       for old, new in ((">", ">="), ("1", "0"))},
}


def target_lines(base, module, source):
    """The lines to mutate in a module's ``TARGETS`` functions.

    Every line of a ``WHOLE`` function's body; of any other, the lines that
    ``git diff base`` adds and that name the shift.
    """
    diff = subprocess.run(["git", "diff", "-U0", base, "--", f"src/parkseq/{module}.py"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout
    added = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.M):
        first = int(start)
        added.update(range(first, first + (1 if count == "" else int(count))))
    marks = TARGETS[module]
    whole, inside = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in marks:
            body = range(node.body[0].lineno, node.end_lineno + 1)
            (whole if marks[node.name] == WHOLE else inside).update(body)
    text = source.splitlines()
    return whole | {row for row in added & inside
                    if re.search(r"\b(lift|z|trailer_z)\b|<<", text[row - 1])}


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
        elif token.type in (tokenize.OP, tokenize.NAME) and token.string in SWAPS:
            out.append((row, col, token.string, SWAPS[token.string]))
    return out


def mutate(source, row, col, old, new):
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    assert line[col:col + len(old)] == old, (row, col, old)
    lines[row - 1] = line[:col] + new + line[col + len(old):]
    return "".join(lines)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def killed(tree):
    """Does the gate, or else Tier-1, fail (or hang, or outgrow the cap) on this tree?  Which one did."""
    env = dict(os.environ, PYTHONPATH="src")
    for name, args in (("gate", GATE), ("tier-1", TIER1)):
        try:
            done = subprocess.run([sys.executable, *args], cwd=tree, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
                                  preexec_fn=_cap_memory)
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
    table = {module: dict.fromkeys(COLUMNS, 0) for module in TARGETS}
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
        table[module]["mutants"] += 1
        if by:
            kills += 1
            table[module][by.split()[0]] += 1
        else:
            survivors.append((module, row, line, col, old, new))
    print(f"\n{len(plan)} mutants, {kills} killed, {len(survivors)} survived")
    equivalent = 0
    for module, row, line, col, old, new in survivors:
        why = EQUIVALENT.get((module, line, col, old, new))
        equivalent += why is not None
        mark = f"equivalent: {why}" if why else "real"
        table[module]["equivalent" if why else "real"] += 1
        print(f"  {module}.py:{row}  {old!r} -> {new!r}  [{mark}]  {line}")
    print(f"\n{'module':<13}" + "".join(f"{column:>11}" for column in COLUMNS))
    for module, row in table.items():
        print(f"{module:<13}" + "".join(f"{value:>11}" for value in row.values()))
    real = len(plan) - equivalent
    print(f"kill rate {kills}/{real} of the mutants that differ from the original"
          + (f" ({equivalent} equivalent)" if equivalent else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
