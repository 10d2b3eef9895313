"""The trailer as a coordinate shift, held to the unshifted spot-list oracle.

The library parks on the street past the trailer (``parkseq.core``); the
oracle ``sweeps.park_on_spots`` parks on the whole street, trailer spots
included, and shares no code with the library.  Behind trailers 2, 3 and 5
each family's listing must equal the filter of every candidate through the
oracle, its unspelled count (read off the walk or the sweep, never off the
members) its closed form, and its decider the filter on every candidate
that could pass.
"""

import itertools
from functools import cache

from sweeps import park_on_spots

from parkseq import (
    DEFAULT_BUDGET,
    FailureReason,
    ParkingInstance,
    ParkOutcome,
    compositions,
    count_inv_constant,
    count_inv_strictly_increasing,
    count_inv_two_block,
    count_ips_determinant,
    count_ps_product,
    count_sps,
    count_sps_k,
    enum_ps,
    enum_ps_inv,
    enum_sps,
    enum_sps_k,
    is_k_strong,
    is_parking_sequence,
    is_permutation_invariant,
    is_strong_ps,
    simulate,
)
from parkseq.enumeration import _inv, _ips, _kstrong, _paths, _ps_walk, _strong

TRAILERS = (2, 3, 5)
LENGTHS = (
    *(lengths for n in (1, 2, 3) for lengths in itertools.product((1, 2, 3), repeat=n)),
    (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 3),
)


@cache
def parks(lengths, z, prefs):
    return park_on_spots(lengths, z, prefs)[0]


def _cube(top, n):
    return list(itertools.product(range(1, top + 1), repeat=n))


def _inv_closed_form(lengths, z):
    """The invariant count of the four characterized shapes, read off the lengths; else None."""
    n, a = len(lengths), lengths[0]
    if all(x < y for x, y in zip(lengths, lengths[1:])):
        return count_inv_strictly_increasing(n, z)
    r = next((i for i, x in enumerate(lengths) if x != a), n)
    if r == n or (a < lengths[r] and len(set(lengths[r:])) == 1):
        return count_inv_constant(n, z) if r == n else count_inv_two_block(n, r, z)
    if a > 1 and set(lengths[1:]) == {1}:
        return count_inv_constant(n, z)
    return None


def test_ps_and_inv_behind_a_trailer():
    for lengths in LENGTHS:
        for z in TRAILERS:
            instance, n = ParkingInstance(lengths, z), len(lengths)
            members = tuple(p for p in _cube(instance.street_length, n) if parks(lengths, z, p))
            assert enum_ps(instance).members == members, (lengths, z)
            assert _ps_walk(instance, DEFAULT_BUDGET).cardinality == count_ps_product(lengths, z)
            invariant = tuple(
                p for p in members
                if all(parks(lengths, z, q) for q in itertools.permutations(p))
            )
            assert enum_ps_inv(instance).members == invariant, (lengths, z)
            count = _inv(instance, DEFAULT_BUDGET).cardinality
            assert count == len(invariant), (lengths, z)
            assert _inv_closed_form(lengths, z) in (None, count), (lengths, z)
            # the verdict reads the multiset: each sorted member, reversed too;
            # a sequence that does not park is not invariant, above M none parks
            invariant = set(invariant)
            ordered = [p for p in members if list(p) == sorted(p)]
            for prefs in ordered + [p[::-1] for p in ordered] + [(instance.street_length + 1,) * n]:
                assert is_permutation_invariant(instance, prefs) is (prefs in invariant), prefs


def test_strong_behind_a_trailer():
    for lengths in LENGTHS:
        if list(lengths) != sorted(lengths):
            continue
        arrangements = set(itertools.permutations(lengths))
        for z in TRAILERS:
            top = ParkingInstance(lengths, z).street_length
            members = tuple(
                p for p in _cube(top, len(lengths))
                if all(parks(arrangement, z, p) for arrangement in arrangements)
            )
            assert enum_sps(lengths, z).members == members, (lengths, z)
            assert _strong(lengths, z, DEFAULT_BUDGET, True).cardinality == count_sps(lengths, z)
            assert count_sps(lengths, z) == len(members)
            # a sequence is strong only if it parks the sorted arrangement
            members = set(members)
            for prefs in _cube(top, len(lengths)):
                if parks(lengths, z, prefs):
                    assert is_strong_ps(lengths, z, prefs, definitional=True) is (prefs in members)


def test_kstrong_behind_a_trailer():
    for total in range(1, 5):
        for k in range(1, total + 1):
            parts = list(compositions(total, k))
            for z in TRAILERS:
                cube = _cube(z + total - 1, k)
                members = tuple(p for p in cube if all(parks(part, z, p) for part in parts))
                listing = enum_sps_k(total, k, z, definitional=True)
                assert listing.members == members, (total, k, z)
                count = _kstrong(total, k, z, DEFAULT_BUDGET, True).cardinality
                assert count == count_sps_k(total, k, z) == len(members), (total, k, z)
                members = set(members)
                for prefs in _cube(z + total, k):
                    assert is_k_strong(total, k, z, prefs, definitional=True) is (prefs in members)


def test_the_walk_keeps_no_trace_of_the_trailer():
    # the walk's memo, each state's node, is the same behind every trailer;
    # only the count read off it depends on z (the walk was quadratic in z
    # when its masks held the trailer, and z = 10,000 ran a host out of memory)
    lengths, memos = (1, 2, 1, 3), {}
    for z in (1, 100, 10_000):
        memos[z] = {}
        listing = _ps_walk(ParkingInstance(lengths, z), 10**30, memos[z])
        assert listing.cardinality == count_ps_product(lengths, z)
        # the count read off the walk is memoized beside it, for every trailer
        assert memos[z].pop(("count", z - 1))
    assert memos[1] == memos[100] == memos[10_000]


def test_walk_counts_behind_a_trailer_past_2_to_the_63():
    # a lifted range from 1 is then wider than len() can report, so each
    # width is read off the shifted range; the box route never walks
    huge, budget = 2**63 + 1, 10**70
    assert _ps_walk(ParkingInstance((1, 2, 1), huge), budget).cardinality == count_ps_product(
        (1, 2, 1), huge)
    assert _strong((1, 2, 1), huge, budget, True).cardinality == count_sps((1, 2, 1), huge)
    assert _kstrong(4, 3, huge, budget, True).cardinality == count_sps_k(4, 3, huge)


def test_capped_pass_counts_under_caps_past_2_to_the_63():
    # the count reads the caps, never a list as long as the first of them
    z, budget = 10**19, 10**70
    expected = 166666666666666666866666666666666666715000000000000000000
    assert _ips(ParkingInstance((1, 2, 1), z), budget).cardinality == count_ips_determinant(
        (1, 2, 1), z) == expected
    assert _paths((z, z), None, budget).cardinality == z * (z + 1) // 2


Z = 10**18


def test_simulate_behind_a_trailer_of_10_to_the_18():
    # each answer read off the rule: every spot below Z is the trailer's
    cases = {
        ((1, 2), (1, 1)): ParkOutcome(True, ((Z, Z), (Z + 1, Z + 2)), (1, 2)),
        ((2, 1), (Z + 1, 1)): ParkOutcome(True, ((Z + 1, Z + 2), (Z, Z)), (2, 1)),
        ((2, 2), (Z + 1, 1)): ParkOutcome(False, ((Z + 1, Z + 2),), (), 2, FailureReason.COLLISION,
                                          Z, Z + 1),
        ((1, 2), (Z + 1, Z + 2)): ParkOutcome(False, ((Z + 1, Z + 1),), (), 2,
                                              FailureReason.COLLISION, Z + 2, None),
        ((1,), (Z + 1,)): ParkOutcome(False, (), (), 1, FailureReason.OFF_STREET),
    }
    for (lengths, prefs), outcome in cases.items():
        assert simulate(ParkingInstance(lengths, Z), prefs) == outcome, (lengths, prefs)
        assert is_parking_sequence(ParkingInstance(lengths, Z), prefs) is outcome.success
    huge = 2**63 + 1
    assert simulate(ParkingInstance((1,), huge), (1,)) == ParkOutcome(True, ((huge, huge),), (1,))


def test_deciders_behind_a_trailer_of_10_to_the_18():
    # (1, Z + 2) on (2, 2): either car first takes Z..Z+1 or Z+2..Z+3, the
    # other the rest; (Z + 1, 1) on (1, 2) strands car 2 at Z..Z+1
    assert is_permutation_invariant(ParkingInstance((2, 2), Z), (1, Z + 2)) is True
    assert is_permutation_invariant(ParkingInstance((1, 2), Z), (1, Z + 1)) is False
    assert is_permutation_invariant(ParkingInstance((1, 2), Z), (1, 1)) is True
    for definitional in (True, False):
        assert is_k_strong(3, 2, Z, (1, Z + 1), definitional=definitional) is True
        assert is_k_strong(3, 2, Z, (Z + 1, 1), definitional=definitional) is False
        assert is_strong_ps((2, 1), Z, (1, Z + 1), definitional=definitional) is True
        assert is_strong_ps((2, 1), Z, (Z + 1, 1), definitional=definitional) is False
