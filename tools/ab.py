"""Interleaved A/B timing of two source trees on one benchmark workload.

From the root of a source checkout:

    python3 tools/ab.py TREE_A TREE_B --workload listing --passes 30

Each tree is a directory holding ``src/parkseq`` (a second checkout, an
unpacked ``git archive``, or ``.``).  Both trees are imported into this one
process, as the packages ``parkseq_a`` and ``parkseq_b``; a tree whose
package imports a bare ``parkseq``, or any module from outside its own
``src/parkseq``, is refused.  The workload's ops are built for each tree from
this checkout's ``perfbench/workloads.py``, so both run the same inputs.
The package loads its modules as they are used, and a workload's builder
may load some, so each tree's imports are checked once its ops are built.
Every op runs on both trees before the next op runs, and which tree goes
first switches from op to op and from pass to pass, so both trees see the
host, the heap and the collector in the same states.  Every answer is
checked against the workload's reference.

The report gives, per span and for the whole pass, each tree's fastest pass
in milliseconds, and B/A.  A span's time is the sum of its ops, so it also
gives the span's slowest op: each op's fastest time on a tree, the largest
of these in the span (in the whole pass, for the pass row), and B/A.  That
op sets the workload's tail latency when it is the slowest of the pass.
The exit status is 1 if any op of either tree gave a wrong answer or raised.

What the report cannot show:

- Its times are not the benchmark's.  Two packages and their workloads share
  one process, and their absolute times move with that process: on one
  2-vCPU host the ``counting`` pass read 9.4-10.8 ms here and 6.5-6.8 ms
  with one tree per process.  Only B/A is a reading.
- Both trees share one heap and one collector, so a gain that comes from
  keeping fewer objects alive reads smaller here than in a process of its own.

Claims of either kind, like every end-to-end claim, are read from
alternating ``perfbench/run.py`` runs of the two trees, which run one tree
per process.

The noise floor: the checkout against a byte-identical copy of itself, at
the default 30 passes, in both orders, three runs of each per workload
(2-vCPU host), read the pass row at B/A 0.96-1.09 (gate 0.961-1.017,
listing 0.974-1.019, counting 0.991-1.094, queries 0.957-1.001), single
spans at 0.86-1.11 (0.95-1.11 for spans of 1 ms or more), and the slowest
op at 0.77-1.23 (0.89-1.11 outside ``counting``, whose ops take
microseconds).  A B/A inside those ranges is not a reading.  ``listing``
read B slower in five of the six runs, whichever tree was B.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("gate", "listing", "counting", "queries")


def _load(name, tree, builder, seed):
    """Import ``tree``'s ``src/parkseq`` as the package ``name``, beside any other copy, and build its ops.

    Exits if loading or building imported a bare ``parkseq``, or a module of
    ``name`` from outside ``tree``: a tree that imports itself by its
    absolute name would otherwise be timed as whatever ``parkseq`` is on
    ``sys.path``.  The check follows the builder, which may load modules.
    """
    package = (Path(tree) / "src" / "parkseq").resolve()
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    importlib.import_module(f"{name}.cli")  # the queries workload calls lib.cli
    ops = builder(lib, seed)
    foreign = []
    for module_name, module in list(sys.modules.items()):
        top = module_name.partition(".")[0]
        origin = Path(getattr(module, "__file__", None) or ".").resolve()
        if top == "parkseq" or (top == name and package not in origin.parents):
            foreign.append(f"{module_name} from {origin}")
    if foreign:
        raise SystemExit(f"error: loading {tree} imported {min(foreign)}, not from {package}")
    return ops


def _time(trees, workload, seed, passes):
    """Time both trees in this process, op by op; per tree, its ``_best`` and failed ops."""
    sys.path.insert(0, str(PERFBENCH))
    import measure
    import workloads

    ops = [_load(f"parkseq_{side}", tree, workloads.BUILDERS[workload], seed)
           for side, tree in zip("ab", trees)]
    # one phase per op, so each op's answers are checked against its own reference
    phases = [[measure.new_phase([op]) for op in tree_ops] for tree_ops in ops]
    for turn in range(passes):
        for index in range(len(ops[0])):
            for side in (0, 1) if (turn + index) % 2 == 0 else (1, 0):
                measure.run_phase([ops[side][index]], 1, phase=phases[side][index])
    results = []
    for tree_ops, tree_phases in zip(ops, phases):
        failed = sum(measure.check([op], phase)[0] for op, phase in zip(tree_ops, tree_phases))
        results.append((*_best(tree_ops, tree_phases, passes), failed))
    return results


def _best(ops, phases, passes):
    """One tree's fastest pass and slowest op per span, in ms, with ``"pass"`` for the whole pass."""
    per_pass, slowest = {}, {}
    for op, phase in zip(ops, phases):
        fastest = min(phase.op_times) * 1e3
        for span in (op.span, "pass"):
            times = per_pass.setdefault(span, [0.0] * passes)
            for turn, seconds in enumerate(phase.op_times):
                times[turn] += seconds * 1e3
            slowest[span] = max(slowest.get(span, 0.0), fastest)
    return {span: min(times) for span, times in per_pass.items()}, slowest


def _report(trees, results, args):
    (a_spans, a_ops, a_failed), (b_spans, b_ops, b_failed) = results
    lines = [f"workload {args.workload}  seed {args.seed}  {args.passes} passes in one process:"
             " fastest pass per tree, ms as measured; op = the span's slowest op",
             f"A = {trees[0]}", f"B = {trees[1]}"]
    width = max(map(len, a_spans))
    lines.append(f"{'span':<{width}}  {'A ms':>10}  {'B ms':>10}  {'B/A':>6}"
                 f"  {'A op ms':>10}  {'B op ms':>10}  {'op B/A':>6}")
    for span in sorted(a_spans, key=lambda s: (s == "pass", s)):
        a, b, a_op, b_op = a_spans[span], b_spans[span], a_ops[span], b_ops[span]
        lines.append(f"{span:<{width}}  {a:>10.3f}  {b:>10.3f}  {b / a:>6.3f}"
                     f"  {a_op:>10.3f}  {b_op:>10.3f}  {b_op / a_op:>6.3f}")
    lines.append(f"failed ops: A {a_failed}, B {b_failed}")
    return lines, a_failed or b_failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # two positionals: a tuple metavar on one nargs=2 positional breaks argparse's usage line
    parser.add_argument("tree_a", metavar="TREE_A")
    parser.add_argument("tree_b", metavar="TREE_B")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--passes", type=int, default=30,
                        help="passes over the ops per tree (default 30)")
    parser.add_argument("--seed", type=int, default=1729)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    trees = [Path(tree).resolve() for tree in (args.tree_a, args.tree_b)]
    lines, any_failed = _report(trees, _time(trees, args.workload, args.seed, args.passes), args)
    print("\n".join(lines))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
