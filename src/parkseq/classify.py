"""Membership tests for the parking-sequence families.

Every family has a defining test that parks the cars, one
:func:`parkseq.core._park` step per car on a free-spot mask.  "Every ordering
of the preferences (or of the lengths) parks" knows its sequence up to order,
so :func:`_ordering_sweep` sweeps sub-multisets, never orderings.  The
k-strong definition has no one multiset, as every composition of the total
counts, so :func:`is_k_strong` keeps a frontier of masks instead.  Families
with a closed characterization get that form too;
``verify`` and the tests keep both forms in agreement on desk-scale grids.
The closed invariance rule is the contraction onto vector parking functions
that :func:`parkseq.biject._invariant_contraction` names for each length
shape.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Iterator, Sequence

from .biject import _contract, _invariant_contraction
from .core import (
    ParkingInstance,
    _as_int_tuple,
    _integer,
    _nondecreasing_under,
    _park,
    _shifted,
    _sorted_under,
    _weight_and_count,
    check_boundary,
    check_preferences,
    standard_order_bounds,
)

__all__ = [
    "compositions",
    "distinct_permutations",
    "is_increasing_ps",
    "is_k_strong",
    "is_parking_sequence",
    "is_permutation_invariant",
    "is_strong_ps",
    "is_u_parking_function",
    "necessary_condition",
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
    total, parts = _integer(total, "total"), _integer(parts, "part count")
    if parts < 1 or parts > total:
        raise ValueError(f"need 1 <= parts <= {total}, got {parts}")
    edges = ((0, *cuts, total) for cuts in itertools.combinations(range(1, total), parts - 1))
    return (tuple(map(operator.sub, e[1:], e)) for e in edges)


def is_parking_sequence(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Do all cars park under these preferences?

    One :func:`parkseq.core._park` step per car on the shifted street,
    stopping at the first that fails; no :class:`parkseq.core.ParkOutcome`
    is built.
    """
    free, lift = instance._empty_street, instance.trailer_z - 1
    for pref, size in zip(check_preferences(instance, prefs), instance.lengths):
        free = _park(free, pref - lift if pref > lift else 1, size)  # the shift, inline
        if free is None:
            return False
    return True


def necessary_condition(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Order statistics under the standard-order bounds of the lengths sorted largest first.

    That is c_(1) <= z and c_(t+1) <= z plus the sum of the t largest car
    lengths, the vector-parking-function test of Pitman and Stanley (2002):
    at least t + 1 cars must prefer a spot no higher than that bound, or the
    top of the street cannot be fully covered.  Every parking sequence passes
    it, but it does not suffice: with lengths (2, 2) and z = 1 the preference
    (2, 1) passes here yet fails to park.
    """
    prefs = check_preferences(instance, prefs)
    largest_first = sorted(instance.lengths, reverse=True)
    return _sorted_under(prefs, itertools.accumulate(largest_first[:-1], initial=instance.trailer_z))


def is_increasing_ps(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Nondecreasing sequences that park: c_i <= z + y_1 + ... + y_{i-1}.

    The bound alone is equivalent to (nondecreasing and parks); the test
    suite asserts the equivalence against the simulator exhaustively.
    """
    prefs = check_preferences(instance, prefs)
    return _nondecreasing_under(prefs, standard_order_bounds(instance))


def _ordering_sweep(
    instance: ParkingInstance, room: dict[int, int], prefs: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """The "every ordering parks" sweep: the sorted n-multisets of its last layer.

    Car j takes a fixed entry (its length, or ``prefs[j]`` when given) and one
    value drawn from a pool holding up to ``room[v]`` copies of each value v
    (a preference, or else a length); preferences are shifted
    (:mod:`parkseq.core`).  Layer j maps each j-multiset of the pool whose
    orderings all park cars 1..j to the free-spot masks they leave.  A
    (j+1)-multiset enters the next layer when, for every distinct value v in
    it, the multiset without v is in layer j and car j+1 parks v from every
    mask that entry left.  That is exact: every sub-multiset of a
    multiset whose orderings all park has the same property, so one missing
    from layer j has a failing ordering.  It visits at most prod(m_i + 1)
    sub-multisets, not n! / prod(m_i!) orderings, and holds two layers.  When
    the pool is one n-multiset, its first failing part ends the sweep empty,
    so the result is that multiset or nothing.

    A multiset is one int, its code: the count of the t-th smallest pool
    value sits in bits t*w .. t*w + w - 1, w the bit length of the largest
    room.  Adding a copy of that value adds 1 << t*w and dropping one
    subtracts it, and the value has no room left when its field equals
    room[v] << t*w.  Each code keeps the indices of the values in it, in
    order; a multiset grows by its largest value or a larger one, so a grown
    code's indices are its parent's, plus t when t is new.  Only the last
    layer is decoded.
    """
    values = sorted(room)
    width = max(room.values()).bit_length()
    ones = (1 << width) - 1
    steps = []  # per value index t: t, its unit, its count field and that field when full
    drawn = []  # per value index: its unit, and the value repeated for map
    for t, v in enumerate(values):
        unit = 1 << t * width
        steps.append((t, unit, ones * unit, room[v] * unit))
        drawn.append((unit, itertools.repeat(v)))
    whole = sum(room.values()) == instance.car_count  # then one failing part fails the pool
    layer: dict[int, set[int]] = {0: {instance._empty_street}}  # code -> masks left
    present: dict[int, tuple[int, ...]] = {0: ()}  # code -> indices of its values
    for fixed in prefs or instance.lengths:
        kept = itertools.repeat(fixed)
        grown: dict[int, set[int]] = {}
        grown_present: dict[int, tuple[int, ...]] = {}
        for code, held in present.items():
            for t, unit, field, full in steps[held[-1] if held else 0 :]:
                if code & field == full:
                    continue
                top = code + unit
                indices = held if held and t == held[-1] else held + (t,)
                masks: set[int] = set()
                for unit_s, value in map(drawn.__getitem__, indices):
                    before = layer.get(top - unit_s)
                    if before is not None:
                        if prefs is None:
                            after = set(map(_park, before, value, kept))
                        else:
                            after = set(map(_park, before, kept, value))
                        if None not in after:
                            masks |= after
                            continue
                    if whole:
                        return []
                    break
                else:
                    grown[top] = masks
                    grown_present[top] = indices
        layer, present = grown, grown_present
    admitted = []
    for code, held in present.items():
        multiset: list[int] = []
        for t in held:
            multiset += [values[t]] * (code >> t * width & ones)
        admitted.append(tuple(multiset))
    return admitted


def is_permutation_invariant(instance: ParkingInstance, prefs: Sequence[int]) -> bool:
    """Every rearrangement of the preferences (the sequence included) parks."""
    prefs = check_preferences(instance, prefs)
    return bool(_ordering_sweep(instance, Counter(_shifted(instance.trailer_z - 1, prefs))))


def perm_invariant_characterized(
    instance: ParkingInstance, prefs: Sequence[int]
) -> bool | None:
    """Closed-form invariance verdict for the characterized length shapes.

    Invariant iff every entry above z sits on the contraction's step grid and
    the contracted order statistics lie under its boundary, for the (step,
    boundary) of :func:`parkseq.biject._invariant_contraction`.  Returns None
    for the other shapes; callers fall back to :func:`is_permutation_invariant`.
    """
    prefs = check_preferences(instance, prefs)
    contraction = _invariant_contraction(instance)
    if contraction is None:
        return None
    return _admits(instance.trailer_z, *contraction, prefs)


def _admits(
    trailer_z: int, step: int, boundary: tuple[int, ...], prefs: Sequence[int]
) -> bool:
    """The closed invariance rule on checked input: contract, then bound the sorted image."""
    image = _contract(trailer_z, step, prefs)
    return None not in image and _sorted_under(image, boundary)


def is_strong_ps(
    lengths: Sequence[int],
    trailer_z: int,
    prefs: Sequence[int],
    *,
    definitional: bool = False,
) -> bool:
    """Parks under every rearrangement of the length vector.

    By the characterization, or with ``definitional=True`` by the
    definition, :func:`_ordering_sweep` over the length multiset; the routes
    are those of :mod:`parkseq.enumeration`.
    """
    instance = ParkingInstance(tuple(sorted(_as_int_tuple(lengths, "car lengths"))), trailer_z)
    prefs = check_preferences(instance, prefs)
    if definitional:
        shifted = _shifted(instance.trailer_z - 1, prefs)
        return bool(_ordering_sweep(instance, Counter(instance.lengths), shifted))
    if instance.lengths[0] == instance.lengths[-1]:
        return is_parking_sequence(instance, prefs)
    return all(map(operator.le, prefs, standard_order_bounds(instance)))


def is_k_strong(
    total: int,
    k: int,
    trailer_z: int,
    prefs: Sequence[int],
    *,
    definitional: bool = False,
) -> bool:
    """Parks every multiset of k car lengths totalling ``total`` behind the trailer.

    The street has z + total - 1 spots, and the routes are those of
    :mod:`parkseq.enumeration`.  The definition runs over every composition
    at once: car by car, each mask the cars so far can leave meets every
    length that still leaves room for the cars after it.  A car starts at the
    same spot whatever its length, and a block fits wherever a longer one
    does, so parking the longest length decides them all.
    """
    total, k = _weight_and_count(total, k)
    witness = (1,) * (k - 1) + (total - k + 1,)
    if not definitional:
        return is_strong_ps(witness, trailer_z, prefs)
    instance = ParkingInstance(witness, trailer_z)
    prefs = _shifted(instance.trailer_z - 1, check_preferences(instance, prefs))
    frontier = {instance._empty_street: 0}  # free-spot mask -> length parked
    for later, pref in zip(range(k - 1, -1, -1), prefs):
        grown: dict[int, int] = {}
        for free, used in frontier.items():
            longest = total - used - later
            after = _park(free, pref, longest)
            if after is None:
                return False
            block = after ^ free
            first = block & -block
            for size in range(1, longest + 1):
                grown[free ^ first * ((1 << size) - 1)] = used + size
        frontier = grown
    return True


def is_u_parking_function(bounds: Sequence[int], values: Sequence[int]) -> bool:
    """Order statistics bounded by the vector: x_(i) <= u_i for every i."""
    bounds = check_boundary(bounds)
    values = _as_int_tuple(values, "values")
    if len(values) != len(bounds):
        raise ValueError(f"expected {len(bounds)} values, got {len(values)}")
    return _sorted_under(values, bounds)
