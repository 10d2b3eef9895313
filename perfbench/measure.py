"""The timed loop, the host-speed correction, answer checking, percentiles and the span tracer.

A phase repeats a workload's op list for a fixed number of passes.  Each op
is timed alone with ``perf_counter``; turning an answer into a hashable
summary happens between ops, outside the op's time.  A traced phase records
one span per request plus one child span per library call, keeps them in
memory, and the per-layer figures come from their self times.

On the shared 2-vCPU virtual machine of ``baseline.json`` the same code
runs at speeds up to 2x apart, switching within a second and staying slow
for minutes at times, with process CPU time equal to wall time.  So the
end-to-end times are corrected for the host's speed: while a phase runs, a
timer interrupts it every ``PROBE_INTERVAL_S`` to time a fixed probe loop
(:class:`HostSpeed`), and each op's time is scaled by the probe's reference
time over its median time around that op.  The probe's own time is taken
out of the op's time.  The corrected times are seconds at the speed the
host has when it is quiet.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# op_tail_ms is the sample with exactly this many samples above it.
TAIL_BEYOND = 10


@dataclass
class Phase:
    """What one timed phase saw: per-pass and per-op times, answers, errors."""

    pass_times: list = field(default_factory=list)
    op_times: list = field(default_factory=list)
    op_marks: list = field(default_factory=list)
    work: int = 0
    answers: list = field(default_factory=list)
    raised: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_times)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict
    work: int = 0


def new_phase(ops):
    return Phase(answers=[Counter() for _ in ops], raised=[0] * len(ops))


def run_phase(ops, passes, spans=None, workload="", phase=None, speed=None):
    """Run ``ops`` for ``passes`` whole passes, adding them to ``phase`` (or a new one).

    An op that raises is counted in ``raised`` and the run goes on; its time
    still counts.  With a ``spans`` list the phase is traced: each op becomes
    a request span whose child is the library call, and a CLI op's replay is
    a second child that is left out of the op's time.  With a
    :class:`HostSpeed` on its timer, the time its probes took during an op is
    taken out of the op's time; with one off its timer, it samples between
    ops, outside their times and spans.
    """
    if phase is None:
        phase = new_phase(ops)
    for _ in range(passes):
        pass_time = 0.0
        for index, op in enumerate(ops):
            if speed is not None and not speed.on_timer:
                speed.sample_if_due()
            if spans is None:
                probed = speed.spent if speed else 0.0
                started = perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # a failed op is counted, not fatal
                    result = exc
                ended = perf_counter()
                elapsed = ended - started - ((speed.spent - probed) if speed else 0.0)
                phase.op_marks.append((started, ended))
                answer = _summary(op, result)
                del result
            else:
                elapsed, answer, mark = _traced_op(spans, op, workload)
                phase.op_marks.append(mark)
            if isinstance(answer, Exception):
                phase.raised[index] += 1
                print(f"error: {op.span} {op.attrs}: {answer!r}", file=sys.stderr)
            else:
                phase.answers[index][answer] += 1
                phase.work += op.work(answer)
            phase.op_times.append(elapsed)
            pass_time += elapsed
        phase.pass_times.append(pass_time)
    return phase


def _summary(op, result):
    """The op's hashable answer, or the exception that its call or summary raised."""
    if isinstance(result, Exception):
        return result
    try:
        return op.summarize(result)
    except Exception as exc:  # an unreadable answer is a failed op
        return exc


def _traced_op(spans, op, workload):
    """Run one op as a request span with the library call as its child span.

    Returns the op's time, its answer and the (start, end) of its request.
    """
    root = request = len(spans)
    spans.append(None)
    opened = perf_counter()
    started = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed op is counted, not fatal
        result = exc
    finished = perf_counter()
    answer = _summary(op, result)
    del result
    failed = isinstance(answer, Exception)
    if failed:
        spans.append(Span(op.span, started, finished, root, request, {**op.attrs, "error": type(answer).__name__}))
    else:
        spans.append(Span(op.span, started, finished, root, request, op.attrs, op.work(answer)))
    replayed = 0.0
    if op.replay is not None and not failed:
        target, call = op.replay
        begun = perf_counter()
        call()
        ended = perf_counter()
        replayed = ended - begun
        spans.append(Span("cli.replay", begun, ended, root, request, {"target": target}))
    closed = perf_counter()
    spans[root] = Span("request", opened, closed, None, request, {"workload": workload})
    return closed - opened - replayed, answer, (opened, closed)


def check(ops, phase):
    """Count failed ops: raised, or answered differently from the reference.

    Each reference is computed once, here, after the timed phase.
    """
    failed, mismatches = 0, []
    for index, op in enumerate(ops):
        failed += phase.raised[index]
        if not phase.answers[index]:
            continue
        expected = op.expect()
        for answer, times in phase.answers[index].items():
            if answer != expected:
                failed += times
                mismatches.append((op.span, op.attrs, expected, answer))
    return failed, mismatches


# ----------------------------------------------------------------- host speed

# A timer fires every PROBE_INTERVAL_S; its handler times the probe loop
# PROBE_REPEATS times and keeps the fastest.  An op's host speed is the
# median probe time within SPEED_WINDOW_S of the op.
PROBE_INTERVAL_S = 0.02
PROBE_REPEATS = 3
SPEED_WINDOW_S = 0.25
# The probe's fastest time on the baseline host when it is quiet (rounded); corrected
# times are in seconds at that speed.
PROBE_REFERENCE_S = 70e-6


_BIG = 7**400, 11**380


def probe(n=60, m=6):
    """A fixed loop like the package's own work: small tuples, a dict, a sort, big integers.

    Everything it allocates is freed when it returns, so it leaves the
    collector's counts as it found them.  It calls no library code.
    """
    seen, items = {}, []
    for i in range(n):
        key = (i, i % 5, i % 3)
        seen[key] = seen.get(key[1:], 0) + i
        items.append(key[::-1])
    items.sort()
    a, b = _BIG
    total = 0
    for i in range(m):
        total += (a * b + i) // (b + i)
    return len(seen), total


class HostSpeed:
    """Probe times sampled while a phase runs, and the correction they give."""

    def __init__(self):
        self.stamps, self.times, self.spent = [], [], 0.0
        self.on_timer = False

    def sample(self):
        begun = perf_counter()
        took = []
        for _ in range(PROBE_REPEATS):
            started = perf_counter()
            probe()
            took.append(perf_counter() - started)
        ended = perf_counter()
        best = min(took)
        self.stamps.append((begun + ended) / 2)
        self.times.append(best)
        self.spent += ended - begun

    def sample_if_due(self):
        """Sample unless the last sample is less than PROBE_INTERVAL_S old."""
        if not self.stamps or perf_counter() - self.stamps[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def _on_timer(self, _signum, _frame):
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample on a timer inside the ``with`` block, and once on each side of it."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.on_timer = True
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.on_timer = False
            self.sample()

    def factor(self, start, end):
        """Reference probe time over the median probe time within the window of [start, end]."""
        low = bisect_left(self.stamps, start - SPEED_WINDOW_S)
        high = bisect_right(self.stamps, end + SPEED_WINDOW_S)
        if low == high:  # no sample in the window: take the nearest ones
            low, high = max(0, low - 1), min(len(self.times), high + 1)
        return PROBE_REFERENCE_S / statistics.median(self.times[low:high])

    def corrected(self, phase):
        """The phase's op times, each scaled by the host speed around it."""
        return [t * self.factor(*mark) for t, mark in zip(phase.op_times, phase.op_marks)]


# ---------------------------------------------------------------- percentiles


def latency_summary(samples):
    """(median, tail, tail percentile, sample count) of the samples.

    The tail is the highest percentile with at least ten samples beyond it:
    the sample with exactly ten above it, or the maximum below 11 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    p = 100 * index / (n - 1) if n > 1 else 100.0
    return statistics.median(ordered), ordered[index], p, n


# ---------------------------------------------------------------------- spans


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted((spans[c] for c in children[index]), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def write_spans(path, spans):
    """One JSON array per line: name, start, end, parent, request, work, attrs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            attrs = {key: list(v) if isinstance(v, tuple) else v for key, v in span.attrs.items()}
            handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.request, span.work, attrs]))
            handle.write("\n")
