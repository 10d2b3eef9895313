"""Tests of the benchmark itself: oracles, answer checking, percentiles, spans, outputs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import oracles as ref
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CHEAP_SUITES = {"table1", "catalan", "fuss", "determinant", "strong"}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _built(lib, workload, seed=7):
    ops = workloads.BUILDERS[workload](lib, seed)
    if workload == "gate":
        ops = [op for op in ops if op.attrs["suite"] in CHEAP_SUITES]
    return ops


# -------------------------------------------------------------------- oracles


def _rearrangements_park(lengths, z, prefs):
    return all(ref.parks(lengths, z, p) for p in set(itertools.permutations(prefs)))


def test_invariance_characterization_matches_rearrangement_sweep():
    cases = [(1, 1, 1), (2, 2, 2), (1, 1, 3), (1, 2, 2), (3, 1, 1), (1, 2, 4), (2, 1)]
    for lengths in cases:
        for z in (1, 2):
            spots = z - 1 + sum(lengths)
            for prefs in itertools.product(range(1, spots + 1), repeat=len(lengths)):
                assert ref.inv_member(lengths, z, prefs) == _rearrangements_park(lengths, z, prefs), (lengths, z, prefs)
            members = sum(
                _rearrangements_park(lengths, z, p)
                for p in itertools.product(range(1, spots + 1), repeat=len(lengths))
            )
            assert ref.inv_count(lengths, z) == members


def test_strong_and_k_strong_references_match_sweeps():
    for lengths in [(1, 2, 2), (3, 1, 2), (2, 2, 2), (1, 1, 3)]:
        for z in (1, 2):
            spots = z - 1 + sum(lengths)
            arrangements = set(itertools.permutations(lengths))
            members = 0
            for prefs in itertools.product(range(1, spots + 1), repeat=3):
                swept = all(ref.parks(a, z, prefs) for a in arrangements)
                assert ref.strong_member(lengths, z, prefs) == swept
                members += swept
            assert ref.strong_count(lengths, z) == members
    for total, k, z in [(4, 2, 1), (5, 3, 2), (4, 4, 1), (3, 3, 2)]:
        parts = [c for c in itertools.product(range(1, total + 1), repeat=k) if sum(c) == total]
        members = 0
        for prefs in itertools.product(range(1, z + total), repeat=k):
            swept = all(ref.parks(p, z, prefs) for p in parts)
            assert ref.kstrong_member(total, k, z, prefs) == swept
            members += swept
        assert ref.kstrong_count(total, k, z) == members


def test_counting_references_match_brute_force():
    for lengths, z in [((1, 2, 3), 1), ((2, 1, 1, 2), 2), ((3, 3), 3)]:
        spots = z - 1 + sum(lengths)
        space = list(itertools.product(range(1, spots + 1), repeat=len(lengths)))
        assert ref.count_ps(lengths, z) == sum(ref.parks(lengths, z, p) for p in space)
        increasing = [p for p in space if list(p) == sorted(p)]
        assert ref.count_bounded_nondecreasing(ref.standard_bounds(lengths, z)) == sum(
            ref.parks(lengths, z, p) for p in increasing
        )
    for bounds in [(1, 2, 3), (2, 2, 4, 4), (1, 1, 3)]:
        space = itertools.product(range(1, bounds[-1] + 1), repeat=len(bounds))
        assert ref.count_upf(bounds) == sum(ref.upf_member(bounds, v) for v in space)


def test_naive_simulator_keeps_the_blocked_car_rule():
    assert ref.park((2, 2), 1, (1, 2)) == (((1, 2), (3, 4)), None)
    assert ref.park((2, 2), 1, (2, 1)) == (((2, 3),), 2)


# ------------------------------------------------------------------ workloads


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_one_pass_of_each_workload_is_correct(lib, workload):
    ops = _built(lib, workload)
    phase = measure.run_phase(ops, 1)
    assert len(phase.pass_times) == 1 and phase.attempted == len(ops)
    assert measure.check(ops, phase) == (0, [])


def test_same_seed_gives_same_inputs(lib):
    for workload in ("listing", "counting", "queries"):
        first, again = _built(lib, workload, 3), _built(lib, workload, 3)
        assert [(op.span, op.attrs, op.expect()) for op in first] == [
            (op.span, op.attrs, op.expect()) for op in again
        ]


def _perturbed(answer):
    """A different answer of the same shape: the first entry that can change, changed."""
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer + 1
    if isinstance(answer, tuple):
        for index, item in enumerate(answer):
            changed = _perturbed(item)
            if changed != item:
                return answer[:index] + (changed,) + answer[index + 1 :]
    return answer


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_every_wrong_answer_counts_as_failed(lib, workload):
    ops = _built(lib, workload)
    phase = measure.new_phase(ops)
    for index, op in enumerate(ops):
        wrong = _perturbed(op.expect())
        assert wrong != op.expect()
        phase.answers[index][wrong] += 1
    failed, mismatches = measure.check(ops, phase)
    assert failed == len(ops) == len(mismatches)


def test_a_raising_call_counts_as_failed():
    def broken():
        raise ValueError("bad input")

    ops = [workloads.Op("core.simulate", broken, expect=lambda: True)]
    phase = measure.run_phase(ops, 1)
    assert phase.raised == [1]
    assert measure.check(ops, phase)[0] == 1


# ---------------------------------------------------------------- percentiles


def test_tail_is_the_sample_with_ten_beyond_it():
    values = [float(v) for v in range(1, 1001)]
    p50, tail, p, n = measure.latency_summary(values[::-1])
    assert (p50, tail, n) == (500.5, 990.0, 1000)
    assert math.isclose(p, 100 * 989 / 999)
    assert sum(v > tail for v in values) == 10
    assert measure.latency_summary([float(v) for v in range(11)])[1:3] == (0.0, 0.0)
    assert measure.latency_summary([3.0, 1.0, 2.0]) == (2.0, 3.0, 100.0, 3)


def test_host_speed_scales_each_op_by_the_probe_time_around_it():
    ref_time = measure.PROBE_REFERENCE_S
    speed = measure.HostSpeed()
    speed.stamps = [0.0, 0.1, 10.0, 10.1, 10.2]
    speed.times = [ref_time, ref_time, 2 * ref_time, 2 * ref_time, 4 * ref_time]
    phase = measure.Phase(op_times=[0.05, 0.1], op_marks=[(0.0, 0.06), (10.0, 10.1)])
    assert speed.corrected(phase) == [0.05, 0.05]
    assert speed.factor(50.0, 51.0) == 0.25  # no sample near it: the nearest one


def test_sampling_takes_probe_time_out_of_the_ops(lib):
    ops = _built(lib, "counting")[:3]
    speed = measure.HostSpeed()
    with speed.sampling():
        phase = measure.run_phase(ops, 2, speed=speed)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.times) >= 2 and speed.spent > 0
    assert len(phase.op_marks) == len(phase.op_times) == 6
    assert all(0 < t <= end - start for t, (start, end) in zip(phase.op_times, phase.op_marks))
    assert all(t > 0 for t in speed.corrected(phase))


def test_percentiles_are_over_every_observed_sample(lib):
    ops = _built(lib, "counting")[:3]
    phase = measure.run_phase(ops, 2)
    phase = measure.run_phase(ops, 2, phase=phase)
    assert len(phase.pass_times) == 4 and phase.attempted == len(phase.op_times) == 12
    p50, tail, _, samples = measure.latency_summary(phase.op_times)
    assert samples == 12
    assert p50 == statistics.median(phase.op_times)
    assert tail == sorted(phase.op_times)[1]


def test_setup_is_timed_in_fresh_processes():
    took = run.setup_seconds("counting", 1)
    assert 0 < took < 60


# ---------------------------------------------------------------------- spans


def test_self_time_subtracts_the_union_of_children():
    spans = [
        measure.Span("request", 0.0, 10.0, None, 0, {}),
        measure.Span("a", 1.0, 4.0, 0, 0, {}),
        measure.Span("b", 3.0, 6.0, 0, 0, {}),
        measure.Span("c", 8.0, 12.0, 0, 0, {}),
    ]
    assert measure.self_times(spans) == [10.0 - 5.0 - 2.0, 3.0, 3.0, 4.0]


def test_traced_phase_records_request_and_call_spans(lib):
    ops = _built(lib, "queries")[:50]
    spans, speed = [], measure.HostSpeed()
    phase = measure.run_phase(ops, 1, spans, "queries", speed=speed)
    roots = [s for s in spans if s.parent is None]
    assert len(roots) == len(ops) == phase.attempted
    assert [(s.start, s.end) for s in roots] == phase.op_marks
    assert all(not root.start <= stamp <= root.end for stamp in speed.stamps for root in roots)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.request == span.request and parent.start <= span.start <= span.end <= parent.end


def test_layer_metrics_give_every_per_layer_metric(lib):
    spans, passes = [], {}
    for workload in workloads.BUILDERS:
        ops = workloads.BUILDERS[workload](lib, 1)
        passes[workload] = 1
        for op in ops:
            root = len(spans)
            spans.append(measure.Span("request", 0.0, 3.0, None, root, {}))
            spans.append(measure.Span(op.span, 0.0, 2.0, root, root, op.attrs, 5))
            if op.replay is not None:
                spans.append(measure.Span("cli.replay", 2.0, 2.5, root, root, {}))
    names = set(run.layer_metrics(spans, passes))
    names |= {f"trace.overhead_ratio.{w}" for w in workloads.BUILDERS}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_metrics_match_the_spec():
    result, lines = run.end_to_end("counting", 1, 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("fail_ratio 0 (0 of") for line in lines)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
