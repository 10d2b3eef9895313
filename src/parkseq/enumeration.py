"""Brute-force listings of the parking-sequence families.

These listings are the ground truth that the closed forms and the
characterizations are verified against.  Two searches and one walk build them
all.  The searches step over occupancy masks: from a mask, every preference
after the previous empty spot up to an empty spot j lands on j, so a state has
at most one successor per empty spot, reached by that whole interval of
preferences.  :func:`enum_ps` runs this step on one length vector; the
definitional strong and k-strong listings run it on one mask per length
vector at once, cutting a prefix as soon as any vector fails and walking each
state reached through several prefixes once.  The walk is one capped pass over
nondecreasing tuples, expanded into sorted rearrangements for the families
closed under reordering.  A preference above the street length M can never
park, which bounds the space for a length-n instance at M^n candidates; a
budget guard refuses sweeps whose candidate space exceeds it, never
truncating.  All listings come back lexicographically sorted so output is
reproducible and diffable.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

from .biject import LatticePath
from .classify import _ordering_reach, compositions, distinct_permutations
from .core import (
    ParkingInstance, _as_int_tuple, _positive, _street_mask, _trailer_mask, _weight_and_count,
    check_boundary, standard_order_bounds,
)

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "FamilyListing",
    "enum_ips",
    "enum_lattice_paths",
    "enum_ps",
    "enum_ps_inv",
    "enum_sps",
    "enum_sps_k",
    "enum_u_pf",
]

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
    if candidates > budget:
        raise BudgetExceededError(candidates, budget)


@dataclass(frozen=True)
class FamilyListing:
    """A fully enumerated family, members strictly increasing lexicographically."""

    family: str
    params: dict[str, object] = field(compare=False)
    members: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        members = self.members
        if not all(map(operator.lt, members, itertools.islice(members, 1, None))):
            raise ValueError("members must be strictly increasing lexicographically")

    @property
    def cardinality(self) -> int:
        return len(self.members)


def _nondecreasing(
    caps: Sequence[int], admit: Callable[[tuple[int, ...]], bool] | None = None, lowest: int = 1
) -> list[tuple[int, ...]]:
    """Nondecreasing tuples with lowest <= x_1 and x_i <= caps[i], in lex order.

    Grown an entry at a time; ``admit`` drops a prefix with all its extensions.
    """
    prefixes: list[tuple[int, ...]] = [()]
    for cap in caps:
        grown = [p + (x,) for p in prefixes for x in range(p[-1] if p else lowest, cap + 1)]
        prefixes = grown if admit is None else list(filter(admit, grown))
    return prefixes


def _rearrangements(multisets: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Every ordering of every multiset, sorted."""
    return tuple(sorted(itertools.chain.from_iterable(map(distinct_permutations, multisets))))


def _parking_for_all(
    instance: ParkingInstance, vectors: Callable[[], Iterable[tuple[int, ...]]], budget: int
) -> tuple[tuple[int, ...], ...]:
    """The sequences under which every length vector parks, in lex order.

    ``instance`` holds one of the vectors and the trailer; they all share its
    total, so its street.  ``vectors()`` lists them, called only once the
    budget allows the walk.  Depth first over the tuple of masks, one per
    vector: the preference intervals are cut at every empty spot of any mask,
    the cars of all vectors park from each interval at once, and an interval
    where one fails is dropped with its subtree.  The suffix list of each
    state is kept, keyed on its masks (they fix the depth), so a state
    reached through several prefixes is walked, or cut, once.
    """
    spots, n = instance.street_length, instance.car_count
    _guard(spots**n, budget)
    vectors = list(vectors())
    if len(vectors) == 1:
        return enum_ps(instance, budget).members
    street = _street_mask(spots)
    sizes = [tuple(vector[depth] for vector in vectors) for depth in range(n)]
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    last = n - 1

    def suffixes(depth: int, masks: tuple[int, ...], suffixes: Callable[..., list]) -> list:
        known = memo.get(masks)
        if known is not None:
            return known
        # past the last empty spot of any mask, that vector cannot park
        frees = [street & ~mask for mask in masks]
        bounds = (1 << min(free.bit_length() for free in frees)) - 1
        cuts = 0
        for free in frees:
            cuts |= free
        cuts &= bounds
        found: list[tuple[int, ...]] = []
        lo = 1
        while cuts:
            spot = (cuts & -cuts).bit_length() - 1  # prefs lo..spot land alike
            children = []
            for mask, free, size in zip(masks, frees, sizes[depth]):
                tail = free >> spot
                start = spot + ((tail & -tail).bit_length() - 1)
                piece = ((1 << size) - 1) << start
                if piece & ~free:
                    break
                children.append(mask | piece)
            else:
                if depth == last:
                    found.extend(zip(range(lo, spot + 1)))
                else:
                    tails = suffixes(depth + 1, tuple(children), suffixes)
                    for pref in range(lo, spot + 1):
                        found.extend(map((pref,).__add__, tails))
            lo = spot + 1
            cuts &= cuts - 1
        memo[masks] = found
        return found

    # handed itself, not closed over its own name: that cycle would hold the
    # memo until a full garbage collection
    start = _trailer_mask(instance.trailer_z)
    return tuple(suffixes(0, (start,) * len(vectors), suffixes))


def _landings(free: int, size: int) -> list[tuple[int, int]]:
    """(lo, spot) for each empty spot where a block of ``size`` fits.

    ``free`` is the mask of empty spots.  Preferences lo..spot all land on
    ``spot``; a preference past the last empty spot cannot park.
    """
    unit = (1 << size) - 1
    found = []
    lo = 1
    empty = free
    while empty:
        spot = (empty & -empty).bit_length() - 1
        if not (unit << spot) & ~free:
            found.append((lo, spot))
        lo = spot + 1
        empty &= empty - 1
    return found


def enum_ps(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """Every preference sequence in [1..M]^n under which all cars park.

    Depth-first over occupancy masks, one step per empty spot j whose block
    fits: the preferences from just past the previous empty spot up to j all
    land on j, so they share the child mask.  The last car's preferences
    depend only on the mask it meets, so they are found once per mask and
    appended to each prefix in one step.  The sweep stays exhaustive over
    [1..M]^n.
    """
    spots = instance.street_length
    n = instance.car_count
    _guard(spots**n, budget)
    street = _street_mask(spots)
    lengths = instance.lengths
    finals: dict[int, list[int]] = {}
    members: list[tuple[int, ...]] = []

    def last_prefs(occupied: int) -> list[int]:
        prefs = finals.get(occupied)
        if prefs is None:
            landings = _landings(street & ~occupied, lengths[-1])
            prefs = finals[occupied] = [p for lo, spot in landings for p in range(lo, spot + 1)]
        return prefs

    def extend(
        depth: int, occupied: int, prefix: tuple[int, ...], extend: Callable[..., None]
    ) -> None:
        size = lengths[depth]
        for lo, spot in _landings(street & ~occupied, size):
            child = occupied | (((1 << size) - 1) << spot)
            if depth == n - 2:  # the prefix, this interval, then the last car's preferences
                ends = last_prefs(child)
                members.extend(itertools.product(*zip(prefix), range(lo, spot + 1), ends))
            else:
                for pref in range(lo, spot + 1):
                    extend(depth + 1, child, prefix + (pref,), extend)

    start = _trailer_mask(instance.trailer_z)
    if n == 1:
        members.extend(zip(last_prefs(start)))
    else:
        # handed itself, not closed over its own name: that cycle would hold
        # the members until a full garbage collection
        extend(0, start, (), extend)
    return FamilyListing(
        "ps",
        {"lengths": lengths, "trailer": instance.trailer_z},
        tuple(members),
    )


def enum_ips(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """The nondecreasing members of the family.

    Generated straight from the prefix-sum caps c_1 <= ... <= c_n,
    c_i <= z + y_1 + ... + y_{i-1}, with no simulation; the tests and
    ``verify`` compare them with the nondecreasing members of :func:`enum_ps`.
    """
    params = {"lengths": instance.lengths, "trailer": instance.trailer_z}
    bounds = standard_order_bounds(instance)
    _guard(math.prod(bounds), budget)
    return FamilyListing("ips", params, tuple(_nondecreasing(bounds)))


def enum_ps_inv(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """Members whose every rearrangement also parks.

    The rearrangements of the nondecreasing multisets in [1..M]^n that the
    every-ordering recursion admits; a multiset with a failing ordering is cut
    with all its extensions.  The budget guard is that of :func:`enum_ps`.
    """
    spots = instance.street_length
    _guard(spots**instance.car_count, budget)
    reach = _ordering_reach(instance)
    multisets = _nondecreasing((spots,) * instance.car_count, lambda m: reach(m) is not None)
    params = {"lengths": instance.lengths, "trailer": instance.trailer_z}
    return FamilyListing("inv", params, _rearrangements(multisets))


def enum_sps(
    lengths: Sequence[int],
    trailer_z: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "definition",
) -> FamilyListing:
    """Sequences that park under every rearrangement of the length vector.

    ``method="definition"`` runs the all-vectors search over every distinct
    arrangement at once (the plain :func:`enum_ps` listing when there is only
    one).  ``method="bounds"`` emits the characterized set
    directly: the plain family for constant lengths, otherwise the
    standard-order box on the sorted lengths.  The set depends only on the
    multiset of lengths, so the listing records them sorted.
    """
    ordered = tuple(sorted(_as_int_tuple(lengths, "car lengths")))
    instance = ParkingInstance(ordered, trailer_z)
    params = {"lengths": ordered, "trailer": instance.trailer_z}
    if method == "definition":
        arrangements = partial(distinct_permutations, ordered)
        members = _parking_for_all(instance, arrangements, budget)
        return FamilyListing("strong", params, members)
    if method != "bounds":
        raise ValueError(f"unknown method {method!r}; use 'definition' or 'bounds'")
    if len(set(ordered)) == 1:
        base = enum_ps(instance, budget)
        return FamilyListing("strong", params, base.members)
    bounds = standard_order_bounds(instance)
    _guard(math.prod(bounds), budget)
    members = tuple(itertools.product(*(range(1, b + 1) for b in bounds)))
    return FamilyListing("strong", params, members)


def enum_sps_k(
    total: int,
    k: int,
    trailer_z: int,
    budget: int = DEFAULT_BUDGET,
    definitional: bool = False,
) -> FamilyListing:
    """Length-k sequences parking every multiset of k car lengths totalling ``total``.

    The street has z + total - 1 spots, which also caps useful preferences.
    The default route lists the strong family on the binding composition
    (1, ..., 1, total - k + 1); ``definitional=True`` instead runs the
    all-vectors search over every composition of ``total`` into k parts (the
    compositions are closed under reordering, so this is the definition).
    """
    total, k = _weight_and_count(total, k)
    trailer_z = _positive(trailer_z, "trailer parameter")
    ceiling = trailer_z + total - 1
    _guard(ceiling**k, budget)
    witness = (1,) * (k - 1) + (total - k + 1,)
    if definitional:
        instance = ParkingInstance(witness, trailer_z)
        members = _parking_for_all(instance, partial(compositions, total, k), budget)
    else:
        members = enum_sps(witness, trailer_z, budget, method="bounds").members
    return FamilyListing("kstrong", {"n": total, "k": k, "trailer": trailer_z}, members)


def enum_u_pf(bounds: Sequence[int], budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """All vector parking functions for a nondecreasing boundary.

    A member's order statistics are nondecreasing with x_(i) <= u_i, so the
    family is the sorted rearrangements of those nondecreasing tuples.
    """
    bounds = check_boundary(bounds)
    _guard(bounds[-1] ** len(bounds), budget)
    return FamilyListing("upf", {"boundary": bounds}, _rearrangements(_nondecreasing(bounds)))


def enum_lattice_paths(
    boundary: Sequence[int],
    width: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[LatticePath]:
    """Nondecreasing x_1 <= ... <= x_q with 0 <= x_i < b_i, in lex order.

    ``width`` is the number of east steps of the enclosing rectangle; it
    defaults to the largest possible north-step coordinate, and a narrower
    rectangle also caps every step at ``x_i <= width``.
    """
    boundary = check_boundary(boundary)
    width = boundary[-1] - 1 if width is None else _positive(width, "width", minimum=0)
    caps = [min(b - 1, width) for b in boundary]
    _guard(math.prod(c + 1 for c in caps), budget)
    # the caps and lowest=0 meet every check LatticePath makes
    return [LatticePath._unchecked(xs, boundary, width) for xs in _nondecreasing(caps, lowest=0)]
