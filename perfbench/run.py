"""Benchmark for parkseq: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload listing --seed 1729 --seconds 15 --trace 0

One process, one thread, closed loop: each call starts after the previous
one returns.  ``--trace 0`` times the named workload and prints its
end-to-end metrics; ``--trace 1`` runs every workload with untraced and
traced passes alternating, and prints the per-layer metrics, so that every
layer is covered.  A run makes a fixed number of passes over the workload's
ops, about ``--seconds`` long on the baseline host (``gate`` at least four).
Times are corrected for the host's speed (see ``measure.py``).  Every
answer is checked against a reference from ``oracles.py``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric to workload map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import measure
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / ".perfbench_out" / "spans.jsonl"
DEFAULT_SEED = 1729
# setup_s is the median over this many fresh processes, each timed from its
# start until its inputs are ready.
SETUP_RUNS = 9
SETUP_READY = "ready"
# Probe samples that a set-up process takes after it is ready, to correct its time.
SETUP_PROBES = 20
# Seconds one pass takes on the baseline host.  A run makes --seconds / this
# many passes, so a run's sample counts, and with them the percentile that
# op_tail_ms reports, do not depend on how fast the host happens to be.
PASS_S = {"gate": 11.0, "listing": 2.1, "counting": 1.36, "queries": 0.75}
# A gate pass takes most of --seconds, so gate makes at least four passes:
# its median and tail suites then have four samples each.
MIN_PASSES = {"gate": 4}
# Share of --seconds that each of the untraced and traced phases of a traced
# run gets per workload; the two alternate pass by pass, at least
# TRACE_MIN_PASSES each.
TRACE_SHARE = 0.15
TRACE_MIN_PASSES = 2
WORK_UNIT = {"gate": "records", "listing": "members", "counting": "calls", "queries": "queries"}


def passes_for(workload, seconds):
    return max(MIN_PASSES.get(workload, 1), round(seconds / PASS_S[workload]))


def import_library():
    """Import parkseq from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "parkseq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no parkseq sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    lib = importlib.import_module("parkseq")
    importlib.import_module("parkseq.cli")
    if Path(lib.__file__).resolve().parent != (src / "parkseq").resolve():
        raise ImportError(f"parkseq was imported from {lib.__file__}, not from {src}")
    return lib


def set_up(workload, seed):
    """Import the package and generate the workload's inputs."""
    return workloads.BUILDERS[workload](import_library(), seed)


def setup_seconds(workload, seed):
    """Seconds from the start of a fresh benchmark process to its first op being ready.

    The child runs this script with ``--setup-only``: it starts Python,
    imports the benchmark and parkseq, builds the inputs and reports ready.
    Then it times the host-speed probe and reports the times, and the
    set-up time is corrected with them as an op's time is.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    started = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        took = perf_counter() - started
        probes = child.stdout.read().split()
    if child.returncode != 0 or line != SETUP_READY or not probes:
        raise RuntimeError(f"set-up process for {workload} failed (exit {child.returncode})")
    return took * measure.PROBE_REFERENCE_S / statistics.median(float(t) for t in probes)


def setup_probes():
    """The set-up process's probe times, printed after it reports ready."""
    speed = measure.HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.sample()
    print(" ".join(repr(t) for t in speed.times))


def end_to_end(workload, seed, seconds):
    """Time one workload with tracing off; returns (result dict, human-readable lines)."""
    setups = [setup_seconds(workload, seed) for _ in range(SETUP_RUNS)]
    ops = set_up(workload, seed)
    speed = measure.HostSpeed()
    with speed.sampling():
        phase = measure.run_phase(ops, passes_for(workload, seconds), speed=speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, mismatches = measure.check(ops, phase)
    times = speed.corrected(phase)
    p50, tail, tail_p, samples = measure.latency_summary(times)
    wall = sum(times) / len(phase.pass_times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (phase.work / len(phase.pass_times) / wall, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    lines = [
        f"workload {workload}  seed {seed}  passes {len(phase.pass_times)}  ops {phase.attempted}"
        f"  {WORK_UNIT[workload]} per pass {phase.work // len(phase.pass_times)}",
        f"median pass {statistics.median(phase.pass_times):.6g} s as measured; host speed {host_speed(speed):.4g}"
        f" of quiet ({len(speed.times)} probes); wall_s is the mean corrected pass",
        f"setup_s is the median of {SETUP_RUNS} fresh processes: {' '.join(f'{t:.4g}' for t in setups)} s",
        f"{WORK_UNIT[workload]}_per_s = work_per_s",
        f"op_tail_ms is p{tail_p:.6g} of {samples} op latencies ({measure.TAIL_BEYOND} beyond it)",
        f"fail_ratio {failed / phase.attempted:.6g} ({failed} of {phase.attempted} ops)",
    ]
    lines += [f"mismatch {span} {attrs}: expected {exp!r}, got {got!r}" for span, attrs, exp, got in mismatches[:10]]
    return _result(phase.attempted, failed, metrics), lines


def host_speed(speed):
    """The phase's median probe speed as a share of the quiet host's."""
    return measure.PROBE_REFERENCE_S / statistics.median(speed.times)


def traced(seed, seconds):
    """Run every workload, alternating untraced and traced passes; returns (result dict, lines).

    Alternating the passes lets both sides see the host in the same states.
    The host speed is sampled between ops, outside the spans, and
    ``trace.overhead_ratio`` is the traced phase's corrected time over the
    untraced phase's.  The spans themselves are as measured.
    """
    spans, attempted, failed, lines = [], 0, 0, []
    passes, overhead = {}, {}
    for workload in workloads.BUILDERS:
        ops = set_up(workload, seed)
        count = max(TRACE_MIN_PASSES, round(seconds * TRACE_SHARE / PASS_S[workload]))
        plain, traced_phase = measure.new_phase(ops), measure.new_phase(ops)
        speed = measure.HostSpeed()
        for _ in range(count):
            measure.run_phase(ops, 1, phase=plain, speed=speed)
            measure.run_phase(ops, 1, spans, workload, phase=traced_phase, speed=speed)
        speed.sample()
        passes[workload] = count
        overhead[workload] = sum(speed.corrected(traced_phase)) / sum(speed.corrected(plain))
        for phase in (plain, traced_phase):
            bad, mismatches = measure.check(ops, phase)
            attempted += phase.attempted
            failed += bad
            lines += [f"mismatch {s} {a}: expected {e!r}, got {g!r}" for s, a, e, g in mismatches[:10]]
        lines.append(f"workload {workload}: {count} untraced and {count} traced passes")
    measure.write_spans(SPANS_PATH, spans)
    lines.append(f"{len(spans)} spans written to {SPANS_PATH.relative_to(ROOT)}")
    metrics = layer_metrics(spans, passes)
    metrics.update({f"trace.overhead_ratio.{w}": (ratio, "ratio") for w, ratio in overhead.items()})
    return _result(attempted, failed, metrics), lines


PER_CALL_US = (
    "core.ParkingInstance", "core.simulate",
    "classify.is_parking_sequence", "classify.is_increasing_ps",
    "classify.perm_invariant_characterized", "classify.is_strong_ps",
    "classify.is_k_strong", "classify.is_u_parking_function",
    "biject.ips_to_lattice_path", "biject.lattice_path_to_ips",
    "biject.to_vector_parking_function", "biject.from_vector_parking_function",
    "count.count_ps_product", "count.count_ips_constant", "count.count_inv_constant",
    "count.count_inv_two_block", "count.count_sps", "count.count_sps_k",
)
PER_CALL_MS = (
    "classify.is_permutation_invariant", "classify.is_strong_ps.definitional",
    "classify.is_k_strong.definitional", "cli.run",
)
LISTING_FUNCTIONS = (
    "enum_ps", "enum_ips", "enum_ps_inv", "enum_sps", "enum_sps_k", "enum_u_pf", "enum_lattice_paths",
)


def layer_metrics(spans, passes):
    """Per-layer figures from the traced spans' self times.

    ``passes`` gives each workload's traced pass count, so that the record
    and member counts can be given per pass, where they repeat exactly.
    """
    by_name = {}
    for span, took in zip(spans, measure.self_times(spans)):
        by_name.setdefault(span.name, []).append((span, took))

    metrics = {}
    for suite in workloads.GATE_RECORDS:
        name = f"verify.{suite}"
        entries = by_name[name]
        metrics[f"{name}.s"] = (sum(t for _, t in entries) / len(entries), "s")
        metrics[f"{name}.records"] = (sum(s.work for s, _ in entries) // passes["gate"], "count")
    for fn in LISTING_FUNCTIONS:
        name = f"enumeration.{fn}"
        entries = by_name[name]
        members = sum(s.work for s, _ in entries)
        metrics[f"{name}.us_per_member"] = (sum(t for _, t in entries) / members * 1e6, "us")
        metrics[f"{name}.members"] = (members // passes["listing"], "count")
    refused = sum(
        1 for name, entries in by_name.items() if name.startswith("enumeration.")
        for span, _ in entries if span.attrs.get("error") == "BudgetExceededError"
    )
    metrics["enumeration.budget_refused"] = (refused, "count")
    for n in (50, 100, 200):
        times = [t for s, t in by_name["count.count_ips_determinant"] if s.attrs["n"] == n]
        metrics[f"count.count_ips_determinant.ms.n{n}"] = (sum(times) / len(times) * 1e3, "ms")
    for names, unit, scale in ((PER_CALL_US, "us", 1e6), (PER_CALL_MS, "ms", 1e3)):
        for name in names:
            entries = by_name[name]
            metrics[f"{name}.{unit}_per_call"] = (sum(t for _, t in entries) / len(entries) * scale, unit)
            metrics[f"{name}.calls"] = (len(entries), "count")
    cli_spans = {s.request: took for s, took in by_name["cli.run"]}
    replays = [(cli_spans[s.request], took) for s, took in by_name["cli.replay"]]
    metrics["cli.self_ms_per_call"] = (sum(a - b for a, b in replays) / len(replays) * 1e3, "ms")
    return metrics


def _result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.BUILDERS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_library()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        set_up(args.workload, args.seed)
        print(SETUP_READY, flush=True)
        setup_probes()
        return 0
    if args.trace:
        result, lines = traced(args.seed, args.seconds)
        lines += [f"{metric} {m['value']:.6g} {m['unit']}" for metric, m in result["metrics"].items()]
    else:
        names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
        results, lines = [], []
        for name in names:
            result, more = end_to_end(name, args.seed, args.seconds)
            results.append((name, result))
            lines += more
            lines += [f"{name} {metric} {m['value']:.6g} {m['unit']}" for metric, m in result["metrics"].items()]
        result = results[0][1] if len(results) == 1 else {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
