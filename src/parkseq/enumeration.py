"""Brute-force listings of the parking-sequence families.

These listings are the ground truth that the closed forms and the
characterizations are verified against.  Each producer meets its budget
guard and gives a lazy :class:`FamilyListing`.  There are three:

* the all-vectors walk (:func:`_walk`), one :func:`parkseq.core._park` step
  per car, which keeps the tree of intervals of preferences under which
  every vector of a set of length vectors parks;
* the standard-order box, the product of the prefix-sum ranges;
* one capped pass over nondecreasing tuples under nondecreasing caps,
  parking no car, for the nondecreasing members and the lattice paths
  (:func:`_capped`), counted by the lattice-path determinant
  (:func:`parkseq.count._lattice_paths`), and for the sorted vector
  parking functions, counted by their recurrence
  (:func:`parkseq.count._u_parking`).  Families closed under reordering
  come back as the sorted rearrangements of their multisets;
  :func:`enum_ps_inv` reads its multisets from the last layer of
  :func:`parkseq.classify._ordering_sweep`.

``ps`` is the walk on the instance's one vector.  :func:`_strong` and
:func:`_kstrong` choose the route of the strong and k-strong families, once
for the library and the CLI: the definition walks every arrangement of the
lengths or every composition of the total, the characterization is the
box of the sorted lengths or of the binding composition (1, ..., 1,
total - k + 1).  When there is only one arrangement (constant lengths, or
k = 1 or k = total) the characterized set is the plain family of that one
vector, which the definition walks too, so both routes take the walk.

A preference above the street length M can never park, which bounds a
length-n instance at M^n candidates; every producer meets the budget guard
(:func:`parkseq.core._guard`) on its candidate space before it sweeps.
Every producer lists in lexicographic order by construction, so output is
reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import cache, cached_property, partial, reduce
from typing import Callable, Iterable, Sequence

from .biject import LatticePath
from .classify import _ordering_sweep, compositions, distinct_permutations
from .core import (
    DEFAULT_BUDGET, ParkingInstance, _as_int_tuple, _guard, _park, _positive, _weight_and_count,
    check_boundary, standard_order_bounds,
)
from .count import _lattice_paths, _u_parking

__all__ = [
    "FamilyListing",
    "enum_ips",
    "enum_lattice_paths",
    "enum_ps",
    "enum_ps_inv",
    "enum_sps",
    "enum_sps_k",
    "enum_u_pf",
]

class FamilyListing:
    """A family's members, strictly increasing lexicographically, and their count.

    Built from given members, kept as tuples and refused out of that order,
    or by a producer from a count and a speller.  A producer's listing reads
    the count on the first read of ``cardinality`` and the speller on the
    first read of ``members``, so building it walks and sweeps nothing, and
    a listing whose members are never read (``enumerate --count-only``)
    builds no member.  Once spelled it drops both.  The public ``enum_*``
    return their listings spelled.  Equality and the hash read the family
    and the members; fields are read-only.
    """

    def __init__(self, family: str, params: dict[str, object], members: Iterable = ()):
        members = tuple(map(tuple, members))
        if not all(map(operator.lt, members, itertools.islice(members, 1, None))):
            raise ValueError("members must be strictly increasing lexicographically")
        self.__dict__.update(family=family, params=params, members=members, cardinality=len(members))

    @classmethod
    def _lazy(cls, family: str, params: dict[str, object], count: Callable[[], int],
              spell: Callable[[], Iterable[tuple[int, ...]]]) -> FamilyListing:
        """A producer's listing, counted by ``count()`` and spelled by ``spell()`` in lex order."""
        listing = object.__new__(cls)
        listing.__dict__.update(family=family, params=params, _count=count, _spell=spell)
        return listing

    @cached_property
    def cardinality(self) -> int:
        return self._count()

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        members = tuple(self._spell())
        # drop what the count and the speller hold, the walk's tree or the sweep's multisets
        self.__dict__.update(cardinality=len(members), _count=None, _spell=None)
        return members

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.family, self.members) == (other.family, other.members)

    def __hash__(self) -> int:
        return hash((self.family, self.members))


def _nondecreasing(caps: Sequence[int], lowest: int = 1) -> list[tuple[int, ...]]:
    """Nondecreasing tuples with lowest <= x_1 and x_i <= caps[i], in lex order; caps not empty.

    The last two entries (x, y), x <= caps[-2] and x <= y <= caps[-1], depend
    only on the entry before them, so each lower bound builds its pairs once.
    """
    if len(caps) == 1:
        return [(x,) for x in range(lowest, caps[0] + 1)]
    *head, below, top = caps
    prefixes: list[tuple[int, ...]] = [()]
    for cap in head:
        prefixes = [p + (x,) for p in prefixes for x in range(p[-1] if p else lowest, cap + 1)]
    tails: dict[int, list[tuple[int, int]]] = {}
    members: list[tuple[int, ...]] = []
    for prefix in prefixes:
        least = prefix[-1] if prefix else lowest
        pairs = tails.get(least)
        if pairs is None:
            pairs = tails[least] = [
                (x, y) for x in range(least, below + 1) for y in range(x, top + 1)
            ]
        members.extend(map(prefix.__add__, pairs))
    return members


def _rearrangements(multisets: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Every ordering of every multiset, sorted."""
    return tuple(sorted(itertools.chain.from_iterable(map(distinct_permutations, multisets))))


def _orderings(multisets: Iterable[Sequence[int]], n: int, ones: int) -> int:
    """How many orderings the n-multisets have in all, each 1 standing for ``ones`` values.

    That is the sum of ones^m_1 n! / prod m_v!, m_v the copies of v.
    """
    whole = math.factorial(n)
    total = 0
    for multiset in multisets:
        copies = Counter(multiset)
        total += whole * ones ** copies[1] // math.prod(map(math.factorial, copies.values()))
    return total


def _unshifted(multisets: list[tuple[int, ...]], z: int) -> list[tuple[int, ...]]:
    """The sorted multisets that sorted shifted ones stand for behind a trailer of ``z``.

    The c ones of a multiset become each c-multiset over 1..z, any other v
    becomes v + z - 1.
    """
    out = []
    for multiset in multisets:
        c = multiset.count(1)
        rest = tuple(v + z - 1 for v in multiset[c:])
        out += [head + rest for head in itertools.combinations_with_replacement(range(1, z + 1), c)]
    return out


def _steps(state: int | frozenset[int], shift: int, width: int, memo: dict) -> tuple:
    """The tree of live steps of the all-vectors walk from ``state``, on the shifted street.

    A state is the set of distinct (free-spot mask, lengths still to park)
    pairs the vectors have reached, each packed in one int: the mask below bit
    ``shift``, then the lengths, ``width`` bits each, the next car's lowest.
    Vectors that reach one mask with the same lengths left behave alike from
    then on, so they are one pair.  A set of one pair is that int, else a
    frozenset.  No length is 0, so a code's bit length tells how many cars
    are left.  Preferences are cut at every spot empty in some mask, up to
    the first cut past some mask's last empty spot, and each interval parks
    every pair.  The pairs run longest next car first, so a cut most often
    fails at once, and pairs sharing a mask and a next car park it once.

    A node is a tuple of steps (range of shifted preferences, child node),
    one per interval whose child completes, in ascending order; the last
    car's child is None.
    """
    known = memo.get(state)
    if known is not None:
        return known
    head = shift + width
    street, car = (1 << shift) - 1, (1 << head) - 1
    # per pair: its mask and next car, the mask, the car, and the lengths after
    # it shifted down to the child's place; one pair (every state of a
    # one-vector walk) is decoded directly, the maps would cost it more
    if type(state) is int:
        frees = (state & street,)
        pairs = ((state & car, frees[0], (state & car) >> shift, state >> head << shift),)
        left = (state.bit_length() - 1 - shift) // width
    else:
        codes = sorted(state, key=car.__and__, reverse=True)
        cars = list(map(car.__and__, codes))
        frees = list(map(street.__and__, cars))
        pairs = list(zip(cars, frees, map(shift.__rrshift__, cars),
                         map(shift.__rlshift__, map(head.__rrshift__, codes))))
        left = (codes[0].bit_length() - 1 - shift) // width
    # past some mask's last empty spot no preference parks that pair
    cuts = reduce(operator.or_, frees) & ((1 << min(map(int.bit_length, frees))) - 1)
    found: list = []
    lo = 1
    while cuts:
        spot = (cuts & -cuts).bit_length() - 1
        children = []
        parked = None
        for mask_car, free, size, rest in pairs:
            if mask_car != parked:
                parked = mask_car
                child = _park(free, spot, size)
                if child is None:
                    break
            children.append(child | rest)
        else:
            if not left:
                found.append((range(lo, spot + 1), None))
            else:
                child_state = frozenset(children) if len(children) > 1 else children[0]
                after = _steps(child_state, shift, width, memo)
                if after:
                    found.append((range(lo, spot + 1), after))
        lo = spot + 1
        cuts &= cuts - 1
    # the collector untracks tuples of ranges, None and such tuples, so the
    # memo does not fill its older generations the way lists would
    known = memo[state] = tuple(found)
    return known


def _lifted(prefs: range, lift: int) -> range:
    """The preferences a range of shifted ones stands for behind a trailer of ``lift + 1``.

    The shift of :mod:`parkseq.core` undone: a range from 1 grows by
    ``lift`` at its top and any other moves up by it.
    """
    return range(1 if prefs.start == 1 else prefs.start + lift, prefs.stop + lift)


def _count(node: tuple, lift: int, memo: dict) -> int:
    """How many sequences the node of :func:`_steps` spells behind a trailer of ``lift + 1``.

    The sum over its steps of the lifted range's width, read off the shifted
    range so that it may pass 2^63, times the child's count.  Each node is
    counted once, memoized on its id as :func:`_walk` allows.
    """
    known = memo.get(id(node))
    if known is None:
        known = memo[id(node)] = sum(
            (len(prefs) + lift if prefs.start == 1 else len(prefs))
            * (1 if after is None else _count(after, lift, memo))
            for prefs, after in node
        )
    return known


def _spelled(node: tuple, left: int, lift: int, memo: dict) -> tuple | list:
    """The node of :func:`_steps`, ``left`` cars after its own, behind a trailer of ``lift + 1``.

    Each node is translated once for :func:`_emit`, memoized as in
    :func:`_count`: its ranges lifted, the last car's node into its
    preferences and the node above it into the last two cars' (pref, last)
    pairs.  Lifting keeps the order of the preferences, so the translated
    steps spell in lex order too.
    """
    known = memo.get(id(node))
    if known is None:
        if not left:
            known = [pref for prefs, _ in node for pref in _lifted(prefs, lift)]
        elif left == 1:
            known = [(pref, last) for prefs, after in node for pref in _lifted(prefs, lift)
                     for last in _spelled(after, 0, lift, memo)]
        else:
            known = tuple((_lifted(prefs, lift), _spelled(after, left - 1, lift, memo))
                          for prefs, after in node)
        memo[id(node)] = known
    return known


def _emit(found: tuple | list, left: int, prefix: tuple = (), members: list | None = None) -> list:
    """``members``, new by default, with ``prefix`` plus each sequence the steps ``found`` spell.

    ``found`` is a node of :func:`_steps` as :func:`_spelled` translates it,
    and ``left`` more cars follow the prefix.
    """
    if members is None:
        members = []
    if not left:
        members.extend(zip(found))
    elif left == 1:
        members.extend(map(prefix.__add__, found))
    else:
        for prefs, after in found:
            for pref in prefs:
                _emit(after, left - 1, prefix + (pref,), members)
    return members


def _walk(
    family: str,
    params: dict[str, object],
    instance: ParkingInstance,
    vectors: Callable[[], Iterable[tuple[int, ...]]],
    budget: int,
    memos: dict[tuple, dict] | None = None,
) -> FamilyListing:
    """The listing of the all-vectors walk over ``vectors()``.

    ``instance`` holds one of the vectors and the trailer; they all share its
    total, so its street.  The budget is met here.  The tree (:func:`_steps`)
    is the same for every trailer; each reads its count off it with
    :func:`_count` and its members with :func:`_spelled`.

    The memo contract, for every producer that takes ``memos``: by default a
    walk has memos of its own, so it walks no state twice.  A caller that
    lists many instances in one call (verify's suites) may pass ``memos``
    and keep it as long as it likes; instances with one total then walk each
    state they share once, for every trailer.  It maps a packing (shift,
    width) to its state memo (a code names one state only under one
    packing), ``("count", lift)`` to the counts behind that trailer, keyed
    on the nodes' ids, which the state memos keep alive, and ``("sweep",
    lengths)`` to :func:`_inv`'s sweep, which reads the length vector only.
    Clearing the dict drops them together.
    """
    n = instance.car_count
    _guard(instance.street_length**n, budget)
    lift = instance.trailer_z - 1
    walked = cache(partial(_walked, instance, vectors, memos))

    def count() -> int:
        memo = {} if memos is None else memos.setdefault(("count", lift), {})
        return _count(walked(), lift, memo)

    def spell() -> list:
        return _emit(_spelled(walked(), n - 1, lift, {}), n - 1)

    return FamilyListing._lazy(family, params, count, spell)


def _walked(instance: ParkingInstance, vectors: Callable, memos: dict | None) -> tuple:
    """The tree of the walk from ``vectors()`` on the instance's shifted street."""
    empty = instance._empty_street
    shift = empty.bit_length()
    columns = list(zip(*vectors()))
    width = max(map(max, columns)).bit_length()
    packed = columns.pop()
    for column in reversed(columns):
        packed = list(map(operator.or_, column, map(width.__rlshift__, packed)))
    start = frozenset(map(empty.__or__, map(shift.__rlshift__, packed)))
    if len(start) == 1:
        (start,) = start
    memo = {} if memos is None else memos.setdefault((shift, width), {})
    return _steps(start, shift, width, memo)


def _listed(listing: FamilyListing) -> FamilyListing:
    """``listing`` with its members spelled out, as every public ``enum_*`` returns it."""
    listing.members  # spelled on first read
    return listing


def _params(instance: ParkingInstance) -> dict[str, object]:
    """The params of a listing or record about one instance."""
    return {"lengths": instance.lengths, "trailer": instance.trailer_z}


def _ps_walk(instance: ParkingInstance, budget: int, memos: dict | None = None) -> FamilyListing:
    """The plain family: the walk on the instance's one length vector."""
    return _walk("ps", _params(instance), instance, lambda: (instance.lengths,), budget, memos)


def _box_members(bounds: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """The tuples x with 1 <= x_i <= bounds[i], in lex order."""
    return itertools.product(*(range(1, b + 1) for b in bounds))


def _box(family: str, params: dict, instance: ParkingInstance, budget: int) -> FamilyListing:
    """The standard-order box of the sorted ``instance``, the characterized strong set."""
    bounds = standard_order_bounds(instance)
    size = math.prod(bounds)
    _guard(size, budget)
    return FamilyListing._lazy(family, params, lambda: size, partial(_box_members, bounds))


def _strong(lengths: Sequence[int], trailer_z: int, budget: int, definitional: bool,
            memos: dict | None = None) -> FamilyListing:
    """The strong family of the sorted lengths, by the route the module docstring gives."""
    ordered = tuple(sorted(_as_int_tuple(lengths, "car lengths")))
    instance = ParkingInstance(ordered, trailer_z)
    if definitional or ordered[0] == ordered[-1]:
        vectors = partial(distinct_permutations, ordered)
        return _walk("strong", _params(instance), instance, vectors, budget, memos)
    return _box("strong", _params(instance), instance, budget)


def _kstrong(total: int, k: int, trailer_z: int, budget: int, definitional: bool,
             memos: dict | None = None) -> FamilyListing:
    """The k-strong family of ``total`` and k, by the route the module docstring gives."""
    total, k = _weight_and_count(total, k)
    instance = ParkingInstance((1,) * (k - 1) + (total - k + 1,), trailer_z)
    params = {"n": total, "k": k, "trailer": instance.trailer_z}
    if definitional or k in (1, total):
        return _walk("kstrong", params, instance, partial(compositions, total, k), budget, memos)
    return _box("kstrong", params, instance, budget)


def _inv(instance: ParkingInstance, budget: int, memos: dict | None = None) -> FamilyListing:
    """The invariant members: the orderings of the last layer of the sweep, counted unbuilt.

    The sweep runs on the shifted street, over the pool 1 .. y_1 + ... + y_n
    with room n for each value.
    """
    n, z = instance.car_count, instance.trailer_z
    _guard(instance.street_length**n, budget)
    pool = dict.fromkeys(range(1, instance._empty_street.bit_length()), n)
    multisets = cache(partial(_ordering_sweep, instance, pool))
    if memos is not None:
        multisets = memos.setdefault(("sweep", instance.lengths), multisets)
    return FamilyListing._lazy("inv", _params(instance), lambda: _orderings(multisets(), n, z),
                               lambda: _rearrangements(_unshifted(multisets(), z)))


def _capped(family: str, params: dict[str, object], caps: Sequence[int], lowest: int,
            budget: int) -> FamilyListing:
    """The capped pass: :func:`_nondecreasing`'s tuples, counted unbuilt.

    The caps are nondecreasing and at least ``lowest``, so the tuples less
    ``lowest - 1`` are those that :func:`parkseq.count._lattice_paths` counts.
    """
    sizes = [cap - lowest + 1 for cap in caps]
    _guard(math.prod(sizes), budget)
    return FamilyListing._lazy(family, params, partial(_lattice_paths, sizes),
                               partial(_nondecreasing, caps, lowest))


def _ips(instance: ParkingInstance, budget: int) -> FamilyListing:
    """The nondecreasing members: the capped pass under the standard-order caps."""
    return _capped("ips", _params(instance), standard_order_bounds(instance), 1, budget)


def _paths(boundary: Sequence[int], width: int | None, budget: int) -> FamilyListing:
    """The lattice paths' steps: the capped pass from 0 under min(b - 1, width)."""
    boundary = check_boundary(boundary)
    width = boundary[-1] - 1 if width is None else _positive(width, "width", minimum=0)
    return _capped("paths", {"boundary": boundary, "width": width},
                   [min(b - 1, width) for b in boundary], 0, budget)


def _upf(bounds: Sequence[int], budget: int) -> FamilyListing:
    """The vector parking functions, counted unbuilt.

    The count is :func:`parkseq.count._u_parking`; the members are the
    orderings of the sorted ones.
    """
    bounds = check_boundary(bounds)
    _guard(bounds[-1] ** len(bounds), budget)
    return FamilyListing._lazy("upf", {"boundary": bounds}, partial(_u_parking, bounds),
                               lambda: _rearrangements(_nondecreasing(bounds)))


def enum_ps(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """Every preference sequence in [1..M]^n under which all cars park, by the walk."""
    return _listed(_ps_walk(instance, budget))


def enum_ips(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """The nondecreasing members, c_1 <= ... <= c_n with c_i <= z + y_1 + ... + y_{i-1}."""
    return _listed(_ips(instance, budget))


def enum_ps_inv(instance: ParkingInstance, budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """Members whose every rearrangement also parks, under :func:`enum_ps`'s budget guard."""
    return _listed(_inv(instance, budget))


def enum_sps(
    lengths: Sequence[int],
    trailer_z: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "definition",
) -> FamilyListing:
    """Sequences that park under every rearrangement of the length vector.

    ``method="definition"`` takes the definition's route, ``"bounds"`` the
    characterization's (module docstring).  The set depends only on the
    multiset of lengths, so the listing records them sorted.
    """
    if method not in ("definition", "bounds"):
        ParkingInstance(lengths, trailer_z)  # bad lengths are reported before the method
        raise ValueError(f"unknown method {method!r}; use 'definition' or 'bounds'")
    return _listed(_strong(lengths, trailer_z, budget, method == "definition"))


def enum_sps_k(
    total: int,
    k: int,
    trailer_z: int,
    budget: int = DEFAULT_BUDGET,
    definitional: bool = False,
) -> FamilyListing:
    """Length-k sequences parking every multiset of k car lengths totalling ``total``.

    The street has z + total - 1 spots.  ``definitional=True`` takes the
    definition's route, else the characterization's (module docstring).
    """
    return _listed(_kstrong(total, k, trailer_z, budget, definitional))


def enum_u_pf(bounds: Sequence[int], budget: int = DEFAULT_BUDGET) -> FamilyListing:
    """All vector parking functions for a nondecreasing boundary.

    A member's order statistics are nondecreasing with x_(i) <= u_i, so the
    family is the sorted rearrangements of those nondecreasing tuples.
    """
    return _listed(_upf(bounds, budget))


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
    listing = _paths(boundary, width, budget)
    boundary, width = listing.params["boundary"], listing.params["width"]
    # the caps and lowest=0 meet every check LatticePath makes; the paths wrap
    # the spelled steps, which the listing does not copy into its members
    return [LatticePath._unchecked(xs, boundary, width) for xs in listing._spell()]
