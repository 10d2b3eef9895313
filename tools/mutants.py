"""Mutation survey of the library's kernels, closed forms, deciders and CLI.

From the root of a source checkout:

    python3 tools/mutants.py --work DIR

Every line of the body of each function in ``TARGETS`` is mutated: the
bijection kernels of ``src/parkseq/biject.py``; the budget guard, the
shifted street and ``simulate`` of ``core.py``; ``is_parking_sequence``,
the "every ordering parks" sweep and the deciders of ``classify.py``; the
closed forms, the lattice-path count and the u-parking-function recurrence
of ``count.py``; the walk, its lift, its two readers and the trailer's undo
in ``enumeration.py``; the one check of both bijections in ``verify.py``; and
the request parse, the per-command argument builder and ``run`` of
``cli.py``.  A name that its module does not define is an error, raised
before any mutant runs.  One mutant is made per token on those lines: an
integer constant c becomes c - 1 (0 becomes 1), ``<`` and ``<=`` (``>`` and
``>=``) are swapped, and so are ``+`` and ``-``, ``==`` and ``!=``, and
``and`` and ``or``.  Every mutant of the plan runs, in module and line order.

Each mutant is written into a copy of the checkout under DIR, never into the
checkout itself.  It is killed when the gate (``parkseq verify --suite
all``) fails, or else Tier-1 (``pytest -x``, less this tool's own test)
does, or either outruns ``TIMEOUT_S`` seconds or ``MEMORY_CAP`` bytes of
address space: a hang or a runaway allocation counts as a kill.  Without
the cap, a mutant of ``_ordering_sweep``'s count-field mask grew the gate
past 7 GB in 30 s.
The survivors are printed by module and line; those listed in
``EQUIVALENT``, which no input can tell from the original, are marked so
and do not count against the kill rate.  A table then gives, per module,
the mutants, those the gate kills, those only Tier-1 kills, and the
equivalent and the real survivors.
One mutant runs at a time, so a survey takes about half an hour: 228
mutants ran in 30 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import resource
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = {  # module: the functions whose every body line is mutated
    "biject": ("_to_path", "_from_path", "_contract", "_expand"),
    "core": ("_guard", "_empty_street", "simulate"),
    "classify": ("is_parking_sequence", "necessary_condition", "is_increasing_ps", "_ordering_sweep",
                 "perm_invariant_characterized", "_admits", "is_strong_ps", "is_k_strong",
                 "is_u_parking_function"),
    "count": ("count_ps_product", "_lattice_paths", "_u_parking", "count_ips_determinant",
              "count_ips_constant", "fuss_catalan", "count_inv_strictly_increasing",
              "count_inv_constant", "count_inv_two_block", "count_sps", "count_sps_k"),
    "enumeration": ("_unshifted", "_steps", "_lifted", "_count", "_spelled"),
    "verify": ("_bijection",),
    "cli": ("_parse", "_command_parser", "run"),
}
GATE = ["-c", "import sys; from parkseq.cli import main; sys.exit(main())", "verify", "--suite", "all"]
# the tool's own test reads the mutated source, so it would kill mutants that no behaviour tells apart
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants_tool.py"]
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
_ORDER = "order = sorted(range(1, instance.car_count + 1), key=lambda car: placements[car - 1][0])"
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
    ("core", _ORDER, _ORDER.rindex("0"), "0", "1"):
        "parked cars never overlap, so ordering them by end spot orders them by start spot",
    **{("enumeration", _CHILDREN, _CHILDREN.index(old), old, new):
       "one child makes a frozenset of one pair, which walks exactly as that pair does"
       for old, new in ((">", ">="), ("1", "0"))},
}


def target_lines(module, source):
    """The lines of the bodies of a module's ``TARGETS`` functions; exits if one is missing."""
    bodies = {node.name: range(node.body[0].lineno, node.end_lineno + 1)
              for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    for name in TARGETS[module]:
        if name not in bodies:
            raise SystemExit(f"error: src/parkseq/{module}.py defines no function {name!r}")
    return {row for name in TARGETS[module] for row in bodies[name]}


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


def plan():
    """(module, source, mutant) for each mutant of each module's targets, in module and line order."""
    out = []
    for module in TARGETS:
        source = (ROOT / "src" / "parkseq" / f"{module}.py").read_text()
        out += [(module, source, m) for m in mutants(source, target_lines(module, source))]
    return out


def key(module, source, row, col, old, new):
    """A mutant's key in ``EQUIVALENT``: its line stripped, and its column in that line."""
    raw = source.splitlines()[row - 1]
    return module, raw.strip(), col - (len(raw) - len(raw.lstrip())), old, new


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
    parser.add_argument("--work", required=True, type=Path, help="directory for the mutated copy")
    args = parser.parse_args(argv)
    todo = plan()
    tree = args.work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", "BENCH_*.json"))
    if killed(tree):
        raise SystemExit("error: the unmutated copy fails its own checks")
    survivors, kills = [], 0
    table = {module: dict.fromkeys(COLUMNS, 0) for module in TARGETS}
    for number, (module, source, (row, col, old, new)) in enumerate(todo, start=1):
        path = tree / "src" / "parkseq" / f"{module}.py"
        path.write_text(mutate(source, row, col, old, new))
        try:
            by = killed(tree)
        finally:
            path.write_text(source)
        print(f"[{number}/{len(todo)}] {module}:{row} {old!r} -> {new!r}: "
              f"{'killed by ' + by if by else 'SURVIVED'}", flush=True)
        table[module]["mutants"] += 1
        if by:
            kills += 1
            table[module][by.split()[0]] += 1
        else:
            survivors.append((row, key(module, source, row, col, old, new)))
    print(f"\n{len(todo)} mutants, {kills} killed, {len(survivors)} survived")
    equivalent = 0
    for row, found in survivors:
        module, line, _, old, new = found
        why = EQUIVALENT.get(found)
        equivalent += why is not None
        mark = f"equivalent: {why}" if why else "real"
        table[module]["equivalent" if why else "real"] += 1
        print(f"  {module}.py:{row}  {old!r} -> {new!r}  [{mark}]  {line}")
    print(f"\n{'module':<13}" + "".join(f"{column:>11}" for column in COLUMNS))
    for module, row in table.items():
        print(f"{module:<13}" + "".join(f"{value:>11}" for value in row.values()))
    real = len(todo) - equivalent
    print(f"kill rate {kills}/{real} of the mutants that differ from the original"
          + (f" ({equivalent} equivalent)" if equivalent else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
