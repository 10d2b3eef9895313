"""Interleaved A/B timing of two source trees on one benchmark workload.

From the root of a source checkout:

    python3 tools/ab.py TREE_A TREE_B --workload listing --pairs 10

Each tree is a directory holding ``src/parkseq`` (a second checkout, an
unpacked ``git archive``, or ``.``).  Every pair runs one fresh process per
tree, alternating which tree goes first.  A process imports its tree's
``src/``, builds the workload's ops from this checkout's
``perfbench/workloads.py`` (so both trees run the same inputs), times every
op over ``--passes`` passes and checks every answer against the workload's
reference.  The report gives, per span and for the whole pass, the minimum
over all passes of all processes of each tree, in milliseconds, and B/A.
A span's time is the sum of its ops, so it also gives the span's slowest
op: each op's minimum over all passes of all processes of a tree, the
largest of these in the span (in the whole pass, for the pass row), and B/A.
That op sets the workload's tail latency when it is the slowest of the pass.
Times are as measured, uncorrected for the host's speed; alternating the
trees lets both see the host in the same states.  The exit status is 1 if
any op of either tree gave a wrong answer or raised.

With ``--in-process`` both trees run in this one process instead, imported
as two packages, and they alternate op by op: every op runs on both trees
before the next, which tree goes first switching from op to op and from
pass to pass, for ``--pairs`` x ``--passes`` passes per tree.  Timing one
process per tree also times that process's state (where its objects landed
in memory, when its collector runs), which moved spans that neither tree
changed by up to 10 %; op by op, both trees share one.  The table is the
same.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("gate", "listing", "counting", "queries")


def _child(tree, workload, seed, passes):
    """Time the workload on ``tree``; print its spans' and ops' times and failures as JSON.

    ``spans`` maps each span to its ms per pass, ``ops`` each span to its ops'
    minimum ms over the passes, in workload order.
    """
    src = (Path(tree) / "src").resolve()
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import measure
    import workloads

    import parkseq
    import parkseq.cli  # noqa: F401  (the queries workload calls lib.cli)

    if Path(parkseq.__file__).resolve().parent != src / "parkseq":
        raise ImportError(f"parkseq was imported from {parkseq.__file__}, not from {src}")
    ops = workloads.BUILDERS[workload](parkseq, seed)
    phase = measure.run_phase(ops, passes)
    failed, _ = measure.check(ops, phase)
    print(json.dumps(_result(ops, phase.op_times, phase.pass_times, failed)))


def _result(ops, op_times, pass_times, failed):
    """One tree's times, ``op_times`` pass by pass in workload order, as :func:`_report` reads them."""
    spans = {}
    fastest = [float("inf")] * len(ops)
    for index, seconds in enumerate(op_times):
        per_pass = spans.setdefault(ops[index % len(ops)].span, [0.0] * len(pass_times))
        per_pass[index // len(ops)] += seconds * 1e3
        fastest[index % len(ops)] = min(fastest[index % len(ops)], seconds * 1e3)
    spans["pass"] = [seconds * 1e3 for seconds in pass_times]
    op_mins = {"pass": fastest}
    for op, ms in zip(ops, fastest):
        op_mins.setdefault(op.span, []).append(ms)
    return {"spans": spans, "ops": op_mins, "failed": failed}


def _load(name, tree):
    """Import ``tree``'s ``src/parkseq`` as the package ``name``, beside any other copy."""
    package = Path(tree) / "src" / "parkseq"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    importlib.import_module(f"{name}.cli")  # the queries workload calls lib.cli
    return lib


def _in_process(trees, args):
    """Time both trees in this process, op by op; one (side, result) per tree."""
    sys.path.insert(0, str(PERFBENCH))
    import measure
    import workloads

    ops = [workloads.BUILDERS[args.workload](_load(f"parkseq_{side}", tree), args.seed)
           for side, tree in zip("ab", trees)]
    # one phase per op, so each op's answers are checked against its own reference
    phases = [[measure.new_phase([op]) for op in tree_ops] for tree_ops in ops]
    passes = args.pairs * args.passes
    for turn in range(passes):
        for index in range(len(ops[0])):
            for side in (0, 1) if (turn + index) % 2 == 0 else (1, 0):
                measure.run_phase([ops[side][index]], 1, phase=phases[side][index])
    runs = []
    for side in (0, 1):
        failed = sum(measure.check([op], phase)[0] for op, phase in zip(ops[side], phases[side]))
        op_times = [phase.op_times[p] for p in range(passes) for phase in phases[side]]
        pass_times = [sum(op_times[p * len(ops[side]):(p + 1) * len(ops[side])])
                      for p in range(passes)]
        runs.append((side, _result(ops[side], op_times, pass_times, failed)))
    return runs


def _run_tree(tree, args):
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
            "--workload", args.workload, "--seed", str(args.seed), "--passes", str(args.passes)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"{tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _report(trees, runs, args):
    best = [{} for _ in trees]
    op_best = [{} for _ in trees]  # span -> each op's minimum over the tree's processes
    failed = [0, 0]
    for side, result in runs:
        failed[side] += result["failed"]
        for span, times in result["spans"].items():
            best[side][span] = min(best[side].get(span, float("inf")), *times)
        for span, times in result["ops"].items():
            op_best[side][span] = list(map(min, op_best[side].get(span, times), times))
    samples = args.pairs * args.passes
    where = " in one process" if args.in_process else ""
    lines = [f"workload {args.workload}  seed {args.seed}  {args.pairs} pairs x {args.passes}"
             f" passes{where}: min of {samples} per tree, ms as measured;"
             " op = the span's slowest op",
             f"A = {trees[0]}", f"B = {trees[1]}"]
    width = max(map(len, best[0]))
    lines.append(f"{'span':<{width}}  {'A ms':>10}  {'B ms':>10}  {'B/A':>6}"
                 f"  {'A op ms':>10}  {'B op ms':>10}  {'op B/A':>6}")
    for span in sorted(best[0], key=lambda s: (s == "pass", s)):
        a, b = best[0][span], best[1].get(span, float("nan"))
        a_op, b_op = max(op_best[0][span]), max(op_best[1].get(span, [float("nan")]))
        lines.append(f"{span:<{width}}  {a:>10.3f}  {b:>10.3f}  {b / a:>6.3f}"
                     f"  {a_op:>10.3f}  {b_op:>10.3f}  {b_op / a_op:>6.3f}")
    lines.append(f"failed ops: A {failed[0]}, B {failed[1]}")
    return lines, any(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="TREE_A TREE_B")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="processes per tree (default 10)")
    parser.add_argument("--passes", type=int, default=3,
                        help="passes over the ops per process (default 3)")
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--in-process", action="store_true",
                        help="run both trees in this process, alternating op by op")
    parser.add_argument("--child", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.workload, args.seed, args.passes)
        return 0
    if len(args.trees) != 2 or args.pairs < 1 or args.passes < 1:
        parser.error("give two trees, and --pairs and --passes of at least 1")
    trees = [Path(tree).resolve() for tree in args.trees]
    if args.in_process:
        lines, any_failed = _report(trees, _in_process(trees, args), args)
        print("\n".join(lines))
        return 1 if any_failed else 0
    runs = []
    for pair in range(args.pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            print(f"pair {pair + 1}: {'AB'[side]}", file=sys.stderr)
            runs.append((side, _run_tree(trees[side], args)))
    lines, any_failed = _report(trees, runs, args)
    print("\n".join(lines))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
