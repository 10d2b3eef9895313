"""Brute-force listings of the parking-sequence families.

These listings are the ground truth that the closed forms and the
characterizations are verified against.  Two generators build them all: the
pruned :func:`enum_ps` search, kept where it parks under other length vectors
too, and one capped walk over nondecreasing tuples, expanded into sorted
rearrangements for the families closed under reordering.  A preference above
the street length M can never park, which bounds the space for a length-n
instance at M^n candidates; a budget guard refuses sweeps whose candidate
space exceeds it, never truncating.  All listings come back lexicographically
sorted so output is reproducible and diffable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .biject import LatticePath
from .classify import _ordering_reach, compositions, distinct_permutations
from .core import (
    ParkingInstance, _as_int_tuple, _integer, _park, _positive, _street_mask, _trailer_mask,
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
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
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
    vectors: list[tuple[int, ...]], trailer_z: int, budget: int
) -> tuple[tuple[int, ...], ...]:
    """The :func:`enum_ps` members for ``vectors[0]`` that park under every other vector."""
    first, *others = vectors  # one total, so one street
    instance = ParkingInstance(first, trailer_z)
    street, start = _street_mask(instance.street_length), _trailer_mask(instance.trailer_z)
    members = enum_ps(instance, budget).members
    return tuple(c for c in members if all(_park(y, c, street, start) is not None for y in others))


def enum_ps(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """Every preference sequence in [1..M]^n under which all cars park.

    Depth-first over prefixes: a partial sequence is only extended while its
    cars still park, which prunes most of the space while keeping the sweep
    exhaustive over [1..M]^n.
    """
    spots = instance.street_length
    n = instance.car_count
    _guard(spots**n, budget)
    street = _street_mask(spots)
    lengths = instance.lengths
    last = n - 1
    members: list[tuple[int, ...]] = []
    prefix = [0] * n

    def extend(depth: int, occupied: int, extend: Callable[..., None]) -> None:
        size = lengths[depth]
        unit = (1 << size) - 1
        free = street & ~occupied
        blocked = ~free
        for pref in range(1, spots + 1):
            tail = free >> pref
            if not tail:
                break  # nothing empty at or past pref, so larger prefs fail too
            start = pref + ((tail & -tail).bit_length() - 1)
            piece = unit << start
            if piece & blocked:
                continue
            prefix[depth] = pref
            if depth != last:
                extend(depth + 1, occupied | piece, extend)
            else:
                members.append(tuple(prefix))

    # handed itself, not closed over its own name: that cycle would hold the
    # members until a full garbage collection
    extend(0, _trailer_mask(instance.trailer_z), extend)
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

    ``method="definition"`` keeps the :func:`enum_ps` members for the sorted
    arrangement (it admits the fewest sequences) that park under every other
    distinct arrangement too.  ``method="bounds"`` emits the characterized set
    directly: the plain family for constant lengths, otherwise the
    standard-order box on the sorted lengths.  The set depends only on the
    multiset of lengths, so the listing records them sorted.
    """
    ordered = tuple(sorted(_as_int_tuple(lengths, "car lengths")))
    instance = ParkingInstance(ordered, trailer_z)
    params = {"lengths": ordered, "trailer": instance.trailer_z}
    if method == "definition":
        members = _parking_for_all(distinct_permutations(ordered), instance.trailer_z, budget)
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
    (1, ..., 1, total - k + 1); ``definitional=True`` instead keeps the
    :func:`enum_ps` members for that composition that park under every other
    composition of ``total`` into k parts (the compositions are closed under
    reordering, so this is the definition).
    """
    total, k = _integer(total, "street weight"), _integer(k, "car count")
    if not 1 <= k <= total:
        raise ValueError(f"need 1 <= k <= {total}, got {k}")
    trailer_z = _positive(trailer_z, "trailer parameter")
    ceiling = trailer_z + total - 1
    _guard(ceiling**k, budget)
    if definitional:  # compositions come in lex order, the binding one first
        members = _parking_for_all(list(compositions(total, k)), trailer_z, budget)
    else:
        witness = (1,) * (k - 1) + (total - k + 1,)
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
