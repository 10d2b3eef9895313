"""Brute-force listings: pinned sets, counts, lexicographic order, budget guard."""

import hashlib
import itertools
import random
import re

import pytest
from sweeps import (
    arrangements_park, k_strong_sweep, lattice_path_sweep, orbit_parks, permutation_set, u_pf_sweep,
)

from parkseq import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FamilyListing,
    LatticePath,
    ParkingInstance,
    compositions,
    count_ps_product,
    count_sps,
    count_sps_k,
    distinct_permutations,
    enum_ips,
    enum_lattice_paths,
    enum_ps,
    enum_ps_inv,
    enum_sps,
    enum_sps_k,
    enum_u_pf,
    is_parking_sequence,
    run_suite,
    simulate,
)
from parkseq import classify, enumeration, verify
from parkseq.biject import _invariant_contraction
from parkseq.core import _park, standard_order_bounds
from parkseq.count import _lattice_paths
from parkseq.enumeration import (
    _inv, _ips, _kstrong, _nondecreasing, _paths, _ps_walk, _strong, _upf, _walk,
)
from parkseq.verify import SUITE_NAMES


def test_enum_ps_small_family():
    listing = enum_ps(ParkingInstance((1, 2), 1))
    assert listing.members == ((1, 1), (1, 2), (3, 1))
    assert listing.cardinality == 3


def test_enum_ps_single_car():
    assert enum_ps(ParkingInstance((1,), 1)).members == ((1,),)


def test_enum_ps_matches_product_count():
    # 2880 = 4 * 8 * 9 * 10, checked against the sweep
    instance = ParkingInstance((1, 2, 2, 3), 4)
    listing = enum_ps(instance)
    assert listing.cardinality == 2880 == count_ps_product((1, 2, 2, 3), 4)


def test_enum_ps_is_exhaustive_over_the_cube():
    # n = 1 lists the last car's preferences alone, n = 2 only two-car tails,
    # n = 3 a prefix before them
    for n in (1, 2, 3):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2, 3):
                instance = ParkingInstance(lengths, z)
                spots = instance.street_length
                by_filter = tuple(
                    prefs
                    for prefs in itertools.product(range(1, spots + 1), repeat=n)
                    if is_parking_sequence(instance, prefs)
                )
                assert enum_ps(instance).members == by_filter, (lengths, z)


def _producer_listings():
    """A fresh, unspelled listing of every producer route, on a grid."""
    for instance in _length_grid():
        lengths, z = instance.lengths, instance.trailer_z
        yield _ps_walk(instance, DEFAULT_BUDGET)
        yield _ips(instance, DEFAULT_BUDGET)
        yield _inv(instance, DEFAULT_BUDGET)
        yield _strong(lengths, z, DEFAULT_BUDGET, True)
        yield _strong(lengths, z, DEFAULT_BUDGET, False)
    for total in range(1, 7):
        for k in range(1, total + 1):
            for z in (1, 2):
                yield _kstrong(total, k, z, DEFAULT_BUDGET, False)
                yield _kstrong(total, k, z, DEFAULT_BUDGET, True)
    for bounds in _nondecreasing_boundaries():
        yield _upf(bounds, DEFAULT_BUDGET)
        for width in (None, 0, 1, 3):
            yield _paths(bounds, width, DEFAULT_BUDGET)


def test_producer_listings_count_their_members_in_strictly_increasing_order():
    # the order the producers give by construction, which no listing rescans,
    # and the count each reads before it spells a member
    for listing in _producer_listings():
        where = (listing.family, listing.params)
        count = listing.cardinality
        m = listing.members
        assert count == len(m), where
        assert all(a < b for a, b in zip(m, m[1:])), where
        given = FamilyListing(listing.family, {}, m)
        assert given == listing and hash(given) == hash(listing), where


def test_nondecreasing_edge_cases_match_the_product_filter():
    # one cap, equal caps, lowest=0 (all-zero caps are what a width-0 path listing
    # asks for), a cap below lowest, and a cap below the one before
    cases = [((4,), 1), ((0,), 0), ((0,), 1), ((3, 3), 1), ((2, 2, 2), 1), ((3, 3, 3), 0),
             ((0, 0, 0), 0), ((1, 4), 0), ((3, 1), 1), ((1, 2, 3, 4), 2), ((2, 3, 3, 5), 0)]
    for caps, lowest in cases:
        expected = [
            xs
            for xs in itertools.product(range(lowest, max(caps) + 1), repeat=len(caps))
            if all(a <= b for a, b in zip(xs, xs[1:])) and all(map(int.__le__, xs, caps))
        ]
        assert _nondecreasing(caps, lowest) == expected, (caps, lowest)


def test_nondecreasing_count_matches_the_listing():
    # every nondecreasing caps tuple of up to four entries from lowest..4, the
    # only caps the capped pass is given, for both lowest values it uses
    for n in range(1, 5):
        for lowest in (0, 1):
            for caps in itertools.combinations_with_replacement(range(lowest, 5), n):
                assert _lattice_paths([cap - lowest + 1 for cap in caps]) == len(
                    _nondecreasing(caps, lowest)), (caps, lowest)


def test_enum_ips_two_pairs():
    listing = enum_ips(ParkingInstance((2, 2), 1))
    assert listing.members == ((1, 1), (1, 2), (1, 3))
    assert listing.cardinality == 3


def test_enum_ips_unit_cars_catalan():
    assert enum_ips(ParkingInstance((1, 1, 1), 1)).cardinality == 5


def test_enum_ips_single_car_counts_trailer_slots():
    assert enum_ips(ParkingInstance((1,), 3)).members == ((1,), (2,), (3,))


def test_enum_ips_methods_agree():
    # the bound walk against the nondecreasing members of the simulation sweep
    for n in (1, 2, 3):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2):
                instance = ParkingInstance(lengths, z)
                assert enum_ips(instance).members == tuple(
                    m for m in enum_ps(instance).members if list(m) == sorted(m)
                )


def test_enum_ps_inv_listings():
    assert enum_ps_inv(ParkingInstance((4, 3, 2), 1)).members == (
        (1, 1, 1),
        (1, 1, 4),
        (1, 4, 1),
        (4, 1, 1),
    )
    assert enum_ps_inv(ParkingInstance((4, 3, 1), 1)).members == (
        (1, 1, 1),
        (1, 1, 4),
        (1, 1, 5),
        (1, 4, 1),
        (1, 5, 1),
        (4, 1, 1),
        (5, 1, 1),
    )


def test_enum_ps_inv_two_big_cars_count():
    assert enum_ps_inv(ParkingInstance((2, 2, 1), 1)).cardinality == 7


def _orbit_sweep_members(instance):
    spots = instance.street_length
    return tuple(
        prefs
        for prefs in itertools.product(range(1, spots + 1), repeat=instance.car_count)
        if orbit_parks(instance, prefs)
    )


def test_enum_ps_inv_matches_the_predicate_on_the_cube():
    # none of these lengths has a closed invariance rule
    cases = (((2, 2, 1), 1), ((4, 3, 1), 1), ((1, 3, 2), 2), ((3, 1, 2), 1), ((2, 1, 2, 1), 1))
    for lengths, z in cases:
        instance = ParkingInstance(lengths, z)
        assert enum_ps_inv(instance).members == _orbit_sweep_members(instance)


def test_enum_ps_inv_matches_the_orbit_sweep_up_to_three_cars():
    for n in (1, 2, 3):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2):
                instance = ParkingInstance(lengths, z)
                assert enum_ps_inv(instance).members == _orbit_sweep_members(instance)


def test_enum_ps_inv_matches_the_orbit_sweep_on_draws_up_to_six_cars():
    rng = random.Random(6)
    for _ in range(12):
        lengths = tuple(rng.randint(1, 3) for _ in range(rng.randint(4, 6)))
        instance = ParkingInstance(lengths, rng.randint(1, 2))
        members = set(enum_ps_inv(instance).members)
        spots = instance.street_length
        for _ in range(25):
            prefs = tuple(rng.randint(1, spots) for _ in lengths)
            assert (prefs in members) == orbit_parks(instance, prefs), (instance, prefs)
        for prefs in rng.sample(sorted(members), min(5, len(members))):
            assert orbit_parks(instance, prefs), (instance, prefs)


def test_enum_ps_inv_sizes_no_sweep_reaches():
    assert enum_ps_inv(ParkingInstance((3, 3, 1, 1, 1, 1, 1), 1)).cardinality == 1408
    assert enum_ps_inv(ParkingInstance((2, 2, 1, 1, 1, 1, 1), 1)).cardinality == 10683


def _nondecreasing_boundaries():
    for n in range(1, 5):
        yield from itertools.combinations_with_replacement(range(1, 6), n)


def test_enum_u_pf_matches_the_predicate_on_the_cube():
    for bounds in _nondecreasing_boundaries():
        assert enum_u_pf(bounds).members == u_pf_sweep(bounds), bounds


def test_enum_ps_inv_is_a_union_of_orbits():
    members = set(enum_ps_inv(ParkingInstance((2, 2, 1), 1)).members)
    for prefs in members:
        assert set(distinct_permutations(prefs)) <= members


def test_enum_sps_pair_is_a_box():
    assert enum_sps((1, 2), 1).members == ((1, 1), (1, 2))


def test_enum_sps_constant_lengths_equal_plain_family():
    for z in (1, 2):
        assert (
            enum_sps((2, 2), z).members == enum_ps(ParkingInstance((2, 2), z)).members
        )


def test_enum_sps_three_car_count():
    assert enum_sps((1, 1, 2), 1).cardinality == 6


def test_enum_sps_ignores_the_input_arrangement():
    assert enum_sps((2, 1, 2), 1).members == enum_sps((1, 2, 2), 1).members


def test_enum_sps_methods_agree():
    for n in (2, 3):
        for lengths in itertools.combinations_with_replacement((1, 2, 3), n):
            for z in (1, 2):
                assert (
                    enum_sps(lengths, z).members
                    == enum_sps(lengths, z, method="bounds").members
                )


def test_enum_sps_unknown_method_is_refused():
    message = "unknown method 'nope'; use 'definition' or 'bounds'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enum_sps((1, 2), 1, method="nope")


def test_enum_sps_matches_the_product_sweep():
    # the all-vectors walk against [1..M]^n parked under every arrangement
    for n in range(1, 5):
        for lengths in itertools.combinations_with_replacement((1, 2, 3), n):
            for z in (1, 2):
                spots = z - 1 + sum(lengths)
                swept = tuple(
                    prefs
                    for prefs in itertools.product(range(1, spots + 1), repeat=n)
                    if arrangements_park(lengths, z, prefs)
                )
                assert enum_sps(lengths, z).members == swept, (lengths, z)


def test_enum_sps_k_listed_sets():
    assert enum_sps_k(3, 1, 1).members == ((1,),)
    assert enum_sps_k(3, 2, 1).members == ((1, 1), (1, 2))
    assert enum_sps_k(3, 3, 1).cardinality == 16
    assert (3, 2, 1) in enum_sps_k(3, 3, 1).members


def test_enum_sps_k_rising_factorial_case():
    assert enum_sps_k(4, 2, 2).cardinality == 6  # 2 * 3


def test_enum_sps_k_is_guarded_by_its_box():
    # 100^5 preference lists, but a box of 1 * 2 * 3 * 4 * 5
    assert enum_sps_k(100, 5, 1).cardinality == 120 == count_sps_k(100, 5, 1)


def test_enum_sps_k_definitional_agrees():
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            for z in (1, 2):
                assert (
                    enum_sps_k(n, k, z).members
                    == enum_sps_k(n, k, z, definitional=True).members
                )


def test_all_vectors_walk_on_sets_not_closed_under_reordering():
    # sets no reordering closes, whose states have differing completions, so
    # a memo keyed on too little shows; the fixed sets share suffixes, so
    # vectors that reach one mask with the same lengths left merge
    rng = random.Random(12)
    shared = [
        [(1, 2, 3), (2, 1, 3)],
        [(1, 2, 3), (2, 1, 3), (3, 1, 2)],
        [(1, 1, 2, 2), (2, 1, 1, 2), (1, 2, 1, 2)],
        [(3, 1, 1, 1), (1, 3, 1, 1), (2, 2, 1, 1), (1, 1, 2, 2)],
        [(1, 1, 3), (2, 1, 2), (1, 2, 2)],
    ]
    cases = [(vectors, z) for vectors in shared for z in (1, 2)]
    for _ in range(60):
        n = rng.randint(2, 4)
        pool = list(compositions(rng.randint(n, 6), n))
        vectors = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        cases.append((vectors, rng.randint(1, 2)))
    for vectors, z in cases:
        n, spots = len(vectors[0]), z - 1 + sum(vectors[0])
        swept = tuple(
            prefs
            for prefs in itertools.product(range(1, spots + 1), repeat=n)
            if all(simulate(ParkingInstance(v, z), prefs).success for v in vectors)
        )
        instance = ParkingInstance(vectors[0], z)
        walked = _walk("ps", {}, instance, lambda: vectors, DEFAULT_BUDGET)
        assert walked.cardinality == len(swept), (vectors, z)
        assert walked.members == swept, (vectors, z)


def test_walk_count_matches_the_listing_and_the_closed_forms():
    # the count is read off the steps, so it must agree with the members they
    # spell and with a formula that shares no code with the walk; the listings
    # are built where that is cheap: n <= 4 for the plain family, at most
    # 10**5 members for the k-strong one
    for n in range(1, 6):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2, 3):
                instance = ParkingInstance(lengths, z)
                count = _ps_walk(instance, DEFAULT_BUDGET).cardinality
                assert count == count_ps_product(lengths, z), (lengths, z)
                if n <= 4:
                    assert count == enum_ps(instance).cardinality, (lengths, z)
    for n in range(1, 6):
        for multiset in itertools.combinations_with_replacement((1, 2, 3), n):
            for z in (1, 2, 3):
                count = _strong(multiset, z, DEFAULT_BUDGET, True).cardinality
                assert count == count_sps(multiset, z) == enum_sps(multiset, z).cardinality
    for total in range(1, 9):
        for k in range(1, total + 1):
            for z in (1, 2, 3):
                count = _kstrong(total, k, z, DEFAULT_BUDGET, True).cardinality
                assert count == count_sps_k(total, k, z), (total, k, z)
                if count <= 10**5:
                    listing = enum_sps_k(total, k, z, definitional=True)
                    assert count == listing.cardinality, (total, k, z)


def test_unspelled_counts_match_the_listings():
    # the box counts the product of its bounds, inv the orderings of its
    # multisets and upf by its recurrence; each must agree with the members it spells
    for n in range(1, 5):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2):
                listing = _inv(ParkingInstance(lengths, z), DEFAULT_BUDGET)
                assert listing.cardinality == len(listing.members), (lengths, z)
                listing = _strong(lengths, z, DEFAULT_BUDGET, False)
                assert listing.cardinality == len(listing.members), (lengths, z)
    for total in range(1, 8):
        for k in range(1, total + 1):
            listing = _kstrong(total, k, 2, DEFAULT_BUDGET, False)
            assert listing.cardinality == len(listing.members), (total, k)
    for n in range(1, 5):
        for bounds in itertools.combinations_with_replacement(range(1, 6), n):
            listing = _upf(bounds, DEFAULT_BUDGET)
            assert listing.cardinality == len(listing.members), bounds


def test_upf_counts_without_spelling_a_member(monkeypatch):
    def refuse(*args):
        raise AssertionError("the count built a sorted member")

    monkeypatch.setattr(enumeration, "_nondecreasing", refuse)
    assert _upf(range(1, 9), DEFAULT_BUDGET).cardinality == 9**7
    assert _upf((2, 3, 3), DEFAULT_BUDGET).cardinality == 26
    assert _upf((10**8,), DEFAULT_BUDGET).cardinality == 10**8


def test_walk_parks_each_merged_state_once(monkeypatch):
    # five arrangements of (3, 3, 3, 2, 3): 13,880 _park calls when the walk
    # kept one mask per vector, fewer once equal (mask, lengths left) pairs
    # merge and pairs sharing a mask and a next car park it once
    calls = []

    def counted(free, pref, size):
        calls.append(pref)
        return _park(free, pref, size)

    monkeypatch.setattr(enumeration, "_park", counted)
    assert enum_sps((3, 3, 3, 2, 3), 1).cardinality == 1944 == count_sps((3, 3, 3, 2, 3), 1)
    assert len(calls) == 3337


def test_eq3_walks_each_shared_state_once_per_call(monkeypatch):
    # 55,116 _park calls when each of the 360 instances walked with a memo of
    # its own, 26,605 when instances on one street with one last length
    # shared states; the states are free of the trailer, so instances with one
    # total length and one last length share them across trailers 1, 2 and 3.
    # The second call parks as often as the first: no memo outlives a call.
    calls = []

    def counted(free, pref, size):
        calls.append(pref)
        return _park(free, pref, size)

    monkeypatch.setattr(enumeration, "_park", counted)
    for _ in range(2):
        calls.clear()
        records = run_suite("eq3")
        assert len(records) == 360 and all(record.passed for record in records)
        assert len(calls) == 10755


def test_gate_suites_run_each_producer_once_per_distinct_input(monkeypatch):
    # inv-characterizations: 153 instances, one invariance sweep per length
    # vector (45 of them), one characterized set per (z, step, boundary) (63)
    # and one u-PF family per two-block boundary (18); bijections: 360
    # instances, one capped pass, bounded-path family and path shift per set
    # of bounds (120), so _to_path runs once per member of those 120 capped
    # passes, not on the 43,038 members of all 360, and one u-PF family per
    # contraction boundary (30).  The second call counts as the first: no
    # memo outlives a call.
    calls = dict.fromkeys(("_ordering_sweep", "_characterized_set", "_to_path", "_paths", "_upf"), 0)

    def counted(module, name):
        function = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, count)

    counted(enumeration, "_ordering_sweep")
    for name in ("_characterized_set", "_to_path", "_paths", "_upf"):
        counted(verify, name)
    kinds = [(kind, instance) for kind, instance, _ in verify._invariant_grid(4)]
    shapes = [instance for _, instance in kinds]
    vectors = {instance.lengths for instance in shapes}
    keys = {(instance.trailer_z, *_invariant_contraction(instance)) for instance in shapes}
    two_block, contracted = ({_invariant_contraction(instance)[1] for kind, instance in kinds
                              if kind in chosen} for chosen in (("two-block",), ("constant", "two-block")))
    passes = {standard_order_bounds(instance): instance for instance in verify._instance_grid(4)}
    members = sum(enum_ips(instance).cardinality for instance in passes.values())
    assert (len(shapes), len(vectors), len(keys)) == (153, 45, 63)
    assert (len(two_block), len(contracted)) == (18, 30)
    assert (len(passes), members) == (120, 14346)
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        records = run_suite("inv-characterizations")
        assert len(records) == 360 and all(record.passed for record in records)
        assert (calls["_ordering_sweep"], calls["_characterized_set"], calls["_upf"]) == (45, 63, 18)
        calls.update(dict.fromkeys(calls, 0))
        records = run_suite("bijections")
        assert len(records) == 900 and all(record.passed for record in records)
        assert (calls["_to_path"], calls["_paths"], calls["_upf"]) == (members, 120, 30)


def test_enum_sps_k_definitional_on_seven_cars():
    # seven compositions of 8; 2.4 s when each enum_ps member was re-parked
    assert enum_sps_k(8, 7, 1, definitional=True).members == enum_sps_k(8, 7, 1).members


def test_enum_u_pf_counts():
    assert enum_u_pf((1, 2, 3)).cardinality == 16
    assert enum_u_pf((4,)).members == ((1,), (2,), (3,), (4,))
    assert enum_u_pf((2, 3)).cardinality == 8


def test_enum_lattice_paths_dyck_boundary():
    assert len(enum_lattice_paths((1, 2, 3))) == 5  # Catalan number
    narrow = enum_lattice_paths((1, 2, 3), width=1)
    assert [path.xs for path in narrow] == [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
    with pytest.raises(ValueError, match="width must be >= 0, got -1$"):
        enum_lattice_paths((1, 2, 3), width=-1)
    for width in (1.5, "2", True):
        with pytest.raises(ValueError, match="width must be an integer$"):
            enum_lattice_paths((1, 2, 3), width=width)


def test_enum_lattice_paths_single_step():
    paths = enum_lattice_paths((1,))
    assert [path.xs for path in paths] == [(0,)]


def test_enum_lattice_paths_contains_the_drawn_path():
    xs = [path.xs for path in enum_lattice_paths((3, 4, 5, 8), width=8)]
    assert (2, 3, 3, 7) in xs
    assert xs == sorted(xs)


def test_budget_guard_raises_instead_of_truncating():
    for enumerate_family in (enum_ps, enum_ps_inv):
        with pytest.raises(BudgetExceededError, match="would sweep 216 candidates, budget is 10$"):
            enumerate_family(ParkingInstance((2, 2, 2), 1), budget=10)
    refusals = (
        (lambda: enum_ips(ParkingInstance((2, 2, 2), 1), budget=10), 15, 10),
        (lambda: enum_u_pf((2, 3, 3), budget=10), 27, 10),
        (lambda: enum_lattice_paths((1, 2, 3), budget=5), 6, 5),
        (lambda: enum_lattice_paths((2, 4, 6), width=1, budget=5), 8, 5),
        (lambda: enum_sps((2, 1, 2), 1, budget=10), 125, 10),
        (lambda: enum_sps((2, 1, 2), 1, budget=5, method="bounds"), 8, 5),
        (lambda: enum_sps_k(4, 3, 1, budget=5), 6, 5),
        (lambda: enum_sps_k(4, 2, 1, budget=10, definitional=True), 16, 10),
        # 9! arrangements, none built: the all-vectors walk refuses first
        (lambda: enum_sps(range(1, 10), 1), 45**9, DEFAULT_BUDGET),
    )
    for listing, candidates, budget in refusals:
        message = f"would sweep {candidates} candidates, budget is {budget}$"
        with pytest.raises(BudgetExceededError, match=message):
            listing()
    # a budget equal to the candidate count is enough, one less is not
    assert enum_ps(ParkingInstance((1, 1), 1), budget=4).cardinality == 3
    with pytest.raises(BudgetExceededError, match="would sweep 4 candidates, budget is 3$"):
        enum_ps(ParkingInstance((1, 1), 1), budget=3)


# every public entry that takes a budget, on each of its routes
_BUDGETED = {
    "enum_ps": lambda budget: enum_ps(ParkingInstance((1, 2), 1), budget),
    "enum_ips": lambda budget: enum_ips(ParkingInstance((1, 2), 1), budget),
    "enum_ps_inv": lambda budget: enum_ps_inv(ParkingInstance((1, 2), 1), budget),
    "enum_sps": lambda budget: enum_sps((2, 1), 1, budget),
    "enum_sps-bounds": lambda budget: enum_sps((2, 1), 1, budget, method="bounds"),
    "enum_sps_k": lambda budget: enum_sps_k(4, 2, 1, budget),
    "enum_sps_k-definitional": lambda budget: enum_sps_k(4, 2, 1, budget, definitional=True),
    "enum_u_pf": lambda budget: enum_u_pf((1, 2), budget),
    "enum_lattice_paths": lambda budget: enum_lattice_paths((1, 2), budget=budget),
    **{f"run_suite-{name}": lambda budget, name=name: run_suite(name, 1, budget=budget)
       for name in SUITE_NAMES},
}


@pytest.mark.parametrize("entry", sorted(_BUDGETED))
@pytest.mark.parametrize(
    "budget, message",
    [(True, "budget must be an integer$"), (2.0, "budget must be an integer$"),
     (0, "budget must be >= 1, got 0$"), (-1, "budget must be >= 1, got -1$")],
    ids=["bool", "float", "zero", "negative"],
)
def test_a_budget_that_is_no_positive_integer_is_refused_before_any_walk(
    monkeypatch, entry, budget, message
):
    def no_step(*args):
        raise AssertionError("parked a car before the budget was checked")

    monkeypatch.setattr(enumeration, "_park", no_step)
    monkeypatch.setattr(classify, "_park", no_step)
    with pytest.raises(ValueError, match=message):
        _BUDGETED[entry](budget)


def test_family_listing_rejects_unsorted_members():
    with pytest.raises(ValueError):
        FamilyListing("ps", {}, ((2,), (1,)))
    with pytest.raises(ValueError):
        FamilyListing("ps", {}, ((1,), (1,)))
    # the scan reads a tuple of the members, so a generator is not spent before it is kept
    with pytest.raises(ValueError):
        FamilyListing("ps", {}, (m for m in [(2,), (1,)]))
    generated = FamilyListing("ps", {}, (m for m in [(1,), (2,)]))
    assert generated.members == ((1,), (2,)) and generated.cardinality == 2
    # lists are kept as tuples: hashable, and equal to the same members given as tuples
    given = FamilyListing("ps", {"n": 1}, ((1,), (2,)))
    for members in ([(1,), (2,)], [[1], [2]]):
        listed = FamilyListing("ps", {}, members)
        assert listed.members == ((1,), (2,))
        assert listed == given and hash(listed) == hash(given)
    with pytest.raises(AttributeError, match="cannot assign to field 'members'"):
        listed.members = ()


def test_family_listing_is_never_equal_to_a_non_listing():
    # __eq__ defers to the other side, and object's answer is False
    listing = FamilyListing("ps", {}, ((1,), (2,)))
    assert listing.__eq__(object()) is NotImplemented
    assert listing != object() and listing != listing.members


def test_public_listings_come_spelled_without_their_speller():
    # a call to a public enum_* builds its members before it returns, and the
    # listing keeps neither the count nor the speller, which may hold a walk
    for entry, call in _BUDGETED.items():
        if entry.startswith("enum_") and entry != "enum_lattice_paths":
            state = vars(call(DEFAULT_BUDGET))
            assert state["cardinality"] == len(state["members"]) > 0, entry
            assert state["_count"] is state["_spell"] is None, entry


def test_distinct_permutations_match_the_permutation_set():
    for n in range(7):
        for multiset in itertools.combinations_with_replacement((1, 2, 3), n):
            expected = permutation_set(multiset)
            assert distinct_permutations(multiset) == expected
            assert distinct_permutations(multiset[::-1]) == expected


def test_distinct_permutations_build_only_the_distinct_orderings():
    # 21! orderings, 21 of them distinct
    orderings = distinct_permutations((1,) * 20 + (2,))
    assert orderings == [(1,) * i + (2,) + (1,) * (20 - i) for i in range(20, -1, -1)]


def test_enum_lattice_paths_match_the_product_sweep():
    for boundary in _nondecreasing_boundaries():
        for width in (None, 0, 1, 3):
            paths = enum_lattice_paths(boundary, width)
            assert [path.xs for path in paths] == lattice_path_sweep(boundary, width)
            expected_width = boundary[-1] - 1 if width is None else width
            assert all(path.width == expected_width for path in paths)
            # the listing skips the path's checks; the checked constructor agrees
            assert all(LatticePath(p.xs, p.boundary, p.width) == p for p in paths)


def test_enum_sps_k_definitional_matches_the_product_sweep():
    for total in range(1, 6):
        for k in range(1, total + 1):
            for z in (1, 2):
                swept = k_strong_sweep(total, k, z)
                assert enum_sps_k(total, k, z, definitional=True).members == swept, (total, k, z)


def _length_grid():
    for n in range(1, 5):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2, 3):
                yield ParkingInstance(lengths, z)


# Per family: the listings on a fixed grid, and the sha256 of the repr of the
# list of their member tuples (north-step tuples for paths) in grid order.
_PINNED_LISTINGS = {
    "ps": (
        lambda: (enum_ps(instance).members for instance in _length_grid()),
        "64033ed5f7bf336e64f96d2835ee043f64bc4a95863d3438d8208695a697b779",
    ),
    "ips": (
        lambda: (enum_ips(instance).members for instance in _length_grid()),
        "3c731f078467b313147f3675f8cfc89b4ea74fc1f5d92714550247ce68556cd7",
    ),
    "inv": (
        lambda: (enum_ps_inv(instance).members for instance in _length_grid()),
        "03998189590d0a893b9bfe0bb6f1ff28b2ac484bb80887cde226f95edff44024",
    ),
    "upf": (
        lambda: (enum_u_pf(bounds).members for bounds in _nondecreasing_boundaries()),
        "2ff9754fc4d40592ad82ac155a225dd8d21c8604e5161c8920386e872e2ca471",
    ),
    "paths": (
        lambda: (
            [path.xs for path in enum_lattice_paths(boundary, width)]
            for boundary in _nondecreasing_boundaries()
            for width in (None, 0, 1, 3)
        ),
        "ed741eca6bd727abd4b06715e19b1432ddd7e0857d9721195fec84fad69ab6f3",
    ),
    "strong": (
        lambda: (
            enum_sps(lengths, z).members
            for n in range(1, 5)
            for lengths in itertools.combinations_with_replacement((1, 2, 3), n)
            for z in (1, 2)
        ),
        "02cc32db2bacc907d48dff0e6ebee4fad13983663de7661b1c88fe5dbfe0240c",
    ),
    "kstrong": (
        lambda: (
            enum_sps_k(total, k, z, definitional=True).members
            for total in range(1, 6)
            for k in range(1, total + 1)
            for z in (1, 2)
        ),
        "775db3c08f8d9de36344b4ff07dc725618864640c54f758a8c8d679573b7f633",
    ),
}


@pytest.mark.parametrize("family", sorted(_PINNED_LISTINGS))
def test_listings_match_their_pinned_digests(family):
    listings, expected = _PINNED_LISTINGS[family]
    assert hashlib.sha256(repr(list(listings())).encode()).hexdigest() == expected
