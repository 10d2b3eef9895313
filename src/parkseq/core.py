"""Simulator for the parking process with car lengths and a trailer.

A street has ``M = z - 1 + y_1 + ... + y_n`` numbered spots (1-based) and a
trailer occupies spots ``1 .. z-1`` (no trailer when ``z == 1``).  Cars enter
one at a time.  Car ``i`` drives to the first empty spot ``j >= c_i`` and
parks on ``[j, j + y_i - 1]`` when that whole interval is empty and on the
street.  If there is no empty spot at or past ``c_i`` the car leaves without
parking; if the interval is blocked or runs off the end of the street the car
also leaves.  A blocked car never keeps searching past the blocking interval.
That single rule is the easiest one to get wrong, and the test suite pins it
with the smallest counterexample (lengths (2, 2), preferences (2, 1)).

The trailer is a shift of coordinates, applied once where a request comes
in.  A car that prefers a spot below z drives on to spot z, the first one
the trailer leaves, so instance (y, z) parks exactly as (y, 1) under the
preferences c' = max(c - z + 1, 1), with every spot it reports moved up by
z - 1.  So the parking kernel never sees z: its street is the y_1 + ... +
y_n spots past the trailer, and its time and memory do not grow with z.

Occupancy is one free-spot mask on that street (bit ``j`` set when shifted
spot ``j``, spot ``j + z - 1``, is on the street and empty).  The rule is
written twice on it: by :func:`simulate`, and by :func:`_park`, the
success-only step of every walk and of
:func:`parkseq.classify.is_parking_sequence`, which the tests hold to
:func:`simulate`.

The budget guard sits here, beside the other input guards, so that a caller
can catch :class:`BudgetExceededError` without loading the listings.
:func:`_guard` refuses a sweep whose candidate space is larger than the
budget (``DEFAULT_BUDGET``, 10^8, unless the caller gives one) before any of
it runs; a sweep is refused whole, never truncated.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "FailureReason",
    "ParkOutcome",
    "ParkingInstance",
    "check_boundary",
    "check_preferences",
    "simulate",
    "standard_order_bounds",
]

_INT_ONLY = frozenset((int,))


def _as_int_tuple(values: Iterable[int], what: str, minimum: int = 1) -> tuple[int, ...]:
    """Coerce to a tuple of true integers, rejecting floats, bools and small values.

    One scan of the element types, in C; only a tuple holding some type other
    than ``int`` builds their set and pays for ``operator.index``, which makes
    ``__index__`` types exact.
    """
    try:
        out = tuple(values)
        if not _INT_ONLY.issuperset(map(type, out)):
            if bool in set(map(type, out)):
                raise TypeError("booleans are not integers")
            out = tuple(map(operator.index, out))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers") from exc
    if out and min(out) < minimum:
        raise ValueError(f"{what} must all be >= {minimum}, got {out}")
    return out


def _integer(value: int, what: str) -> int:
    """Coerce one true integer, rejecting floats, bools and strings."""
    try:
        if type(value) is bool:
            raise TypeError("booleans are not integers")
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"{what} must be an integer") from exc


def _positive(value: int, what: str, minimum: int = 1) -> int:
    """Coerce one true integer >= ``minimum``, rejecting floats and bools."""
    out = _integer(value, what)
    if out < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {out}")
    return out


DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Candidate space larger than the configured enumeration budget."""

    def __init__(self, candidates: int, budget: int):
        super().__init__(
            f"enumeration would sweep {candidates} candidates, budget is {budget}"
        )
        self.candidates = candidates
        self.budget = budget


def _guard(candidates: int, budget: int) -> None:
    """Refuse a sweep of more candidates than the budget, a true integer >= 1."""
    if candidates > _positive(budget, "budget"):
        raise BudgetExceededError(candidates, budget)


def _weight_and_count(total: int, k: int) -> tuple[int, int]:
    """The (street weight, car count) pair of the k-strong family: 1 <= k <= total."""
    total, k = _positive(total, "street weight"), _integer(k, "car count")
    if not 1 <= k <= total:
        raise ValueError(f"need 1 <= k <= {total}, got {k}")
    return total, k


def _block_split(n: int, r: int) -> tuple[int, int]:
    """The (car count, leading block length) pair of two-block lengths: 1 <= r < n."""
    n, r = _positive(n, "car count"), _integer(r, "leading block length")
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < {n}, got {r}")
    return n, r


class FailureReason(str, enum.Enum):
    """Why the first failing car could not park."""

    OFF_STREET = "off_street"  # no empty spot at or past the preference
    COLLISION = "collision"  # target interval blocked, or past the street end


@dataclass(frozen=True)
class ParkingInstance:
    """Car lengths plus the trailer parameter ``z`` (spots ``1 .. z-1`` taken).

    The street geometry (its length and the standard-order bounds) is a
    :func:`functools.cached_property`: computed on first use and kept, as
    the fields never change.  It is not a field, so ``==``, ``hash``,
    ``repr`` and :func:`dataclasses.fields` never see it.
    """

    lengths: tuple[int, ...]
    trailer_z: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", _as_int_tuple(self.lengths, "car lengths"))
        if not self.lengths:
            raise ValueError("an instance needs at least one car")
        object.__setattr__(self, "trailer_z", _positive(self.trailer_z, "trailer parameter"))

    @property
    def car_count(self) -> int:
        return len(self.lengths)

    @functools.cached_property
    def street_length(self) -> int:
        """Number of spots: z - 1 trailer spots plus the total car length."""
        return self.trailer_z - 1 + sum(self.lengths)

    @functools.cached_property
    def _empty_street(self) -> int:
        """The free-spot mask before any car parks, in shifted spots: bits 1 .. y_1 + ... + y_n."""
        return (2 << sum(self.lengths)) - 2

    @functools.cached_property
    def _bounds(self) -> tuple[int, ...]:
        """z, z + y_1, ..., z + y_1 + ... + y_(n-1); see :func:`standard_order_bounds`."""
        return tuple(itertools.accumulate(self.lengths[:-1], initial=self.trailer_z))


@dataclass(frozen=True)
class ParkOutcome:
    """Result of one run of the parking process.

    ``placements[i]`` is the closed spot interval taken by car ``i + 1``.  On
    success ``configuration`` lists the car indices by increasing start spot.
    On failure the trailing fields identify the first car that could not park
    (later cars are never simulated) and ``placements`` covers only the cars
    parked before it.
    """

    success: bool
    placements: tuple[tuple[int, int], ...] = ()
    configuration: tuple[int, ...] = ()
    failed_car: int | None = None
    reason: FailureReason | None = None
    attempted_start: int | None = None
    blocked_spot: int | None = None


def check_preferences(instance: ParkingInstance, prefs: Sequence[int]) -> tuple[int, ...]:
    """Validate a preference sequence against an instance, returning a tuple.

    Entries above the street length stay legal; such a car just cannot park.
    """
    out = _as_int_tuple(prefs, "preferences")
    if len(out) != len(instance.lengths):
        raise ValueError(f"expected {instance.car_count} preferences, got {len(out)}")
    return out


def check_boundary(bounds: Iterable[int]) -> tuple[int, ...]:
    """Validate a nondecreasing vector of positive integers."""
    out = _as_int_tuple(bounds, "boundary")
    if not out:
        raise ValueError("boundary must not be empty")
    if any(a > b for a, b in zip(out, out[1:])):
        raise ValueError(f"boundary must be nondecreasing, got {out}")
    return out


def _nondecreasing_under(prefs: Sequence[int], bounds: Sequence[int]) -> bool:
    """Nondecreasing with c_i <= bounds[i] for every i; on checked input."""
    return all(map(operator.le, prefs, prefs[1:])) and all(map(operator.le, prefs, bounds))


def _sorted_under(values: Iterable[int], bounds: Iterable[int]) -> bool:
    """Order statistics under the bounds, x_(i) <= bounds[i] for every i; on checked input."""
    return all(map(operator.le, sorted(values), bounds))


def _shifted(lift: int, prefs: Sequence[int]) -> Sequence[int]:
    """Preferences on the shifted street of ``lift = z - 1``: max(c - lift, 1) each."""
    return [c - lift if c > lift else 1 for c in prefs] if lift else prefs


def _park(free: int, pref: int, size: int) -> int | None:
    """Success-only step of :func:`simulate` for hot loops: park one car.

    ``free`` has bit j set when shifted spot j is on the street and empty
    (the start is ``ParkingInstance._empty_street``), and ``pref`` is
    shifted (:func:`_shifted`).  Returns the mask the car leaves, or None when
    it fails; a block running past the street end meets a clear bit, as a
    taken spot does.
    """
    tail = free >> pref
    if not tail:
        return None
    block = ((1 << size) - 1) << (pref + (tail & -tail).bit_length() - 1)
    if block & ~free:
        return None
    return free ^ block


def simulate(instance: ParkingInstance, prefs: Sequence[int]) -> ParkOutcome:
    """Run the parking process once, on the shifted street of the module docstring."""
    prefs = check_preferences(instance, prefs)
    lift = instance.trailer_z - 1
    free = instance._empty_street
    spots = free.bit_length() - 1
    placements: list[tuple[int, int]] = []
    for car, (pref, size) in enumerate(zip(prefs, instance.lengths), start=1):
        pref = pref - lift if pref > lift else 1  # the shift; inline, as in the deciders
        tail = free >> pref
        if not tail:
            return ParkOutcome(
                False,
                tuple(placements),
                failed_car=car,
                reason=FailureReason.OFF_STREET,
            )
        start = pref + ((tail & -tail).bit_length() - 1)
        block = ((1 << size) - 1) << start
        hit = block & ~free  # a taken spot, or a spot past the street end
        if hit:
            # start is empty, so the lowest hit is past it; above the street it is its end
            spot = (hit & -hit).bit_length() - 1
            return ParkOutcome(
                False,
                tuple(placements),
                failed_car=car,
                reason=FailureReason.COLLISION,
                attempted_start=start + lift,
                blocked_spot=spot + lift if spot <= spots else None,
            )
        free ^= block
        start += lift
        placements.append((start, start + size - 1))
    order = sorted(range(1, instance.car_count + 1), key=lambda car: placements[car - 1][0])
    return ParkOutcome(True, tuple(placements), tuple(order))


def standard_order_bounds(instance: ParkingInstance) -> tuple[int, ...]:
    """Per-car preference caps for the gap-free outcome: z, z + y_1, z + y_1 + y_2, ...

    Car ``k`` ends up directly behind car ``k - 1`` (trailer at the far left,
    no gaps anywhere) exactly when every ``c_k`` is at most the ``k``-th value
    returned here.  Shifted down by one, the same vector is the strict right
    boundary of the lattice paths matched to the nondecreasing sequences.
    """
    return instance._bounds
