"""Membership tests for the parking-sequence families.

Every family has a defining test that parks the cars; where it asks that every
ordering of the preferences or of the lengths park, one memoized recursion over
sub-multisets runs it.  Families with a closed characterization get that form
too; ``verify`` and the tests keep both forms in agreement on desk-scale grids.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    ParkingInstance,
    _as_int_tuple,
    _park,
    _positive,
    _street_mask,
    _trailer_mask,
    check_preferences,
    order_statistics,
    simulate,
    standard_order_bounds,
)

__all__ = [
    "check_boundary",
    "compositions",
    "distinct_permutations",
    "is_increasing_ps",
    "is_k_strong",
    "is_parking_sequence",
    "is_permutation_invariant",
    "is_strong_ps",
    "is_u_parking_function",
    "necessary_condition",
    "parks_in_standard_order",
    "perm_invariant_characterized",
]


def distinct_permutations(values: Sequence[int]) -> list[tuple[int, ...]]:
    """All distinct rearrangements of a multiset, sorted lexicographically.

    Next-permutation steps from the sorted multiset build each distinct
    ordering once, n! / (m_1! ... m_k!) of them, never all n!.
    """
    v = sorted(values)
    out = [tuple(v)]
    while True:
        i = len(v) - 2
        while i >= 0 and v[i] >= v[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(v) - 1
        while v[j] <= v[i]:
            j -= 1
        v[i], v[j] = v[j], v[i]
        v[i + 1 :] = v[:i:-1]
        out.append(tuple(v))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive parts, lex order."""
    if parts < 1 or parts > total:
        raise ValueError(f"need 1 <= parts <= {total}, got {parts}")
    for cuts in itertools.combinations(range(1, total), parts - 1):
        edges = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def check_boundary(bounds: Iterable[int]) -> tuple[int, ...]:
    """Validate a nondecreasing vector of positive integers."""
    out = _as_int_tuple(bounds, "boundary")
    if not out:
        raise ValueError("boundary must not be empty")
    if any(a > b for a, b in zip(out, out[1:])):
        raise ValueError(f"boundary must be nondecreasing, got {out}")
    return out


def is_parking_sequence(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Do all cars park under these preferences?"""
    return simulate(instance, prefs).success


def necessary_condition(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Counting bounds every parking sequence satisfies but that do not suffice.

    At least one preference must be at most z, and for each t at least t + 1
    preferences must be at most z plus the sum of the t largest car lengths
    (otherwise the top of the street cannot be fully covered).  With lengths
    (2, 2) and z = 1 the preference (2, 1) passes here yet fails to park.
    """
    prefs = check_preferences(instance, prefs)
    z = instance.trailer_z
    if not any(c <= z for c in prefs):
        return False
    bound = z
    largest_first = sorted(instance.lengths, reverse=True)
    for t in range(1, instance.car_count):
        bound += largest_first[t - 1]
        if sum(1 for c in prefs if c <= bound) < t + 1:
            return False
    return True


def is_increasing_ps(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Nondecreasing sequences that park: c_i <= z + y_1 + ... + y_{i-1}.

    The bound alone is equivalent to (nondecreasing and parks); the test
    suite asserts the equivalence against the simulator exhaustively.
    """
    prefs = check_preferences(instance, prefs)
    if any(a > b for a, b in zip(prefs, prefs[1:])):
        return False
    return all(c <= b for c, b in zip(prefs, standard_order_bounds(instance)))


def parks_in_standard_order(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Does the sequence park the cars in index order right behind the trailer?

    Defined through the simulator; agrees with the per-car caps from
    :func:`parkseq.core.standard_order_bounds` (also pinned by the tests).
    """
    outcome = simulate(instance, prefs)
    return outcome.success and outcome.configuration == tuple(
        range(1, instance.car_count + 1)
    )


def _ordering_reach(
    instance: ParkingInstance, prefs: tuple[int, ...] | None = None
) -> Callable[[tuple[int, ...]], set[int] | None]:
    """``reach``, the "every ordering parks" recursion; one memo per returned function.

    Car j takes a fixed entry (its length, or ``prefs[j]`` when given) and one
    value drawn from a pool (a preference, or else a length).  ``reach(pool)``,
    for a sorted pool, is the set of masks the pool's orderings leave after
    cars 1..len(pool), or None once one ordering fails: the union, over the
    distinct values v, of one car step from each mask of ``reach(pool - v)``.
    It visits at most prod(m_i + 1) sub-multisets, not n! / prod(m_i!) orderings.
    """
    street = _street_mask(instance.street_length)

    @functools.cache
    def reach(pool: tuple[int, ...]) -> set[int] | None:
        if not pool:
            return {_trailer_mask(instance.trailer_z)}
        j = len(pool) - 1
        masks: set[int] = set()
        for value in set(pool):
            i = pool.index(value)
            before = reach(pool[:i] + pool[i + 1 :])
            car = ((value,), prefs[j : j + 1]) if prefs else (instance.lengths[j : j + 1], (value,))
            after = None if before is None else {_park(*car, street, mask) for mask in before}
            if after is None or None in after:
                return None
            masks |= after
        return masks

    return reach


def is_permutation_invariant(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Every rearrangement of the preferences (the sequence included) parks."""
    prefs = check_preferences(instance, prefs)
    return _ordering_reach(instance)(tuple(sorted(prefs))) is not None


def _two_block_invariant_ok(n: int, r: int, small: int, z: int, prefs: tuple[int, ...]) -> bool:
    # the n-r+1 smallest order statistics sit at or below z; the j-th largest
    # beyond them may also sit on the grid z + small, ..., z + (j-1) * small
    stats = order_statistics(prefs)
    if any(c > z for c in stats[: n - r + 1]):
        return False
    for j in range(2, r + 1):
        c = stats[n - r + j - 1]
        if c <= z:
            continue
        if (c - z) % small or (c - z) // small > j - 1:
            return False
    return True


def perm_invariant_characterized(
    instance: ParkingInstance, prefs: Sequence[int]
) -> bool | None:
    """Closed-form invariance verdict for the characterized length families.

    Matched against the literal arrangement of the lengths:

    * strictly increasing lengths: invariant iff every entry is at most z;
    * (a, ..., a, b, ..., b) with a < b: the two-block order-statistic rule;
    * constant lengths: the two-block rule with r = n, their degenerate case;
    * (a, 1, ..., 1) with a > 1: vector parking function for (z, ..., z+n-1).

    Returns None when the lengths match none of these; callers fall back to
    :func:`is_permutation_invariant`.  The dispatch is deliberately literal:
    for example (1, 2) is the strictly increasing case with invariant set
    [z]^2, while the rearranged (2, 1) is the one-big-car case with a strictly
    larger invariant set, so sorting the lengths first would be wrong.
    """
    prefs = check_preferences(instance, prefs)
    lengths = instance.lengths
    n = instance.car_count
    z = instance.trailer_z
    if all(a < b for a, b in zip(lengths, lengths[1:])):
        return all(c <= z for c in prefs)
    run = 1
    while run < n and lengths[run] == lengths[0]:
        run += 1
    if run == n or (len(set(lengths[run:])) == 1 and lengths[0] < lengths[run]):
        return _two_block_invariant_ok(n, run, lengths[0], z, prefs)
    if lengths[0] > 1 and all(v == 1 for v in lengths[1:]):
        return is_u_parking_function(tuple(range(z, z + n)), prefs)
    return None


def is_strong_ps(
    lengths: Sequence[int],
    trailer_z: int,
    prefs: Sequence[int],
    *,
    definitional: bool = False,
) -> bool:
    """Parks under every rearrangement of the length vector.

    Characterized form: plain membership when the lengths are constant,
    otherwise parking the sorted lengths in standard order.  With
    ``definitional=True`` the definition is run instead, by
    :func:`_ordering_reach` over the length multiset (kept for cross-checks).
    """
    lengths = _as_int_tuple(lengths, "car lengths")
    if definitional:
        instance = ParkingInstance(lengths, trailer_z)
        prefs = check_preferences(instance, prefs)
        return _ordering_reach(instance, prefs)(tuple(sorted(lengths))) is not None
    if len(set(lengths)) == 1:
        return is_parking_sequence(ParkingInstance(lengths, trailer_z), prefs)
    return parks_in_standard_order(
        ParkingInstance(tuple(sorted(lengths)), trailer_z), prefs
    )


def is_k_strong(
    total: int,
    k: int,
    trailer_z: int,
    prefs: Sequence[int],
    *,
    definitional: bool = False,
) -> bool:
    """Parks every multiset of k car lengths totalling ``total`` behind the trailer.

    The street has z + total - 1 spots.  The binding composition is
    (1, ..., 1, total - k + 1), so the check reduces to a strong-sequence test
    against it; ``definitional=True`` sweeps every composition instead.
    """
    if not 1 <= k <= total:
        raise ValueError(f"need 1 <= k <= {total}, got {k}")
    total, k = _positive(total, "street weight"), _positive(k, "car count")
    witness = (1,) * (k - 1) + (total - k + 1,)
    if definitional:
        instance = ParkingInstance(witness, trailer_z)
        prefs = check_preferences(instance, prefs)
        street, start = _street_mask(instance.street_length), _trailer_mask(instance.trailer_z)
        return all(_park(parts, prefs, street, start) is not None for parts in compositions(total, k))
    return is_strong_ps(witness, trailer_z, prefs)


def is_u_parking_function(bounds: Sequence[int], values: Sequence[int]) -> bool:
    """Order statistics bounded by the vector: x_(i) <= u_i for every i."""
    bounds = check_boundary(bounds)
    values = _as_int_tuple(values, "values")
    if len(values) != len(bounds):
        raise ValueError(f"expected {len(bounds)} values, got {len(values)}")
    return all(x <= u for x, u in zip(sorted(values), bounds))
