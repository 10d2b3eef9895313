"""Family membership predicates: pinned examples and definition/characterization agreement."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweeps import (
    arrangements_park, characterized_set, counting_bounds, invariance_rule, k_strong_sweep,
    orbit_parks, parks_in_standard_order,
)

from parkseq import (
    ParkingInstance,
    check_boundary,
    classify,
    compositions,
    distinct_permutations,
    is_increasing_ps,
    is_k_strong,
    is_parking_sequence,
    is_permutation_invariant,
    is_strong_ps,
    is_u_parking_function,
    necessary_condition,
    perm_invariant_characterized,
    simulate,
    standard_order_bounds,
)
from parkseq.core import _park
from parkseq.verify import _characterized_set, _invariant_grid


def _grid(max_n=3, max_y=3, zs=(1, 2)):
    for n in range(1, max_n + 1):
        for lengths in itertools.product(range(1, max_y + 1), repeat=n):
            for z in zs:
                yield ParkingInstance(lengths, z)


def _all_prefs(instance):
    spots = instance.street_length
    return itertools.product(range(1, spots + 1), repeat=instance.car_count)


@st.composite
def _up_to_six_cars(draw):
    lengths = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)))
    z = draw(st.integers(1, 3))
    # a random cap keeps small preferences, and so true verdicts, common
    top = draw(st.integers(1, z + sum(lengths)))
    prefs = tuple(draw(st.lists(st.integers(1, top), min_size=len(lengths), max_size=len(lengths))))
    return lengths, z, prefs


class TestIsParkingSequence:
    def test_fig1(self):
        assert is_parking_sequence(ParkingInstance((1, 2, 2, 3), 4), (3, 7, 5, 3))

    def test_swapped_pair(self):
        assert not is_parking_sequence(ParkingInstance((2, 2), 1), (2, 1))

    def test_small_family_member(self):
        assert is_parking_sequence(ParkingInstance((1, 2), 1), (3, 1))

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_matches_simulate(self, data):
        lengths = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
        instance = ParkingInstance(lengths, data.draw(st.integers(1, 3)))
        # caps up to M + 2, so cars find no empty spot or run past the street
        # end, while a small cap keeps true verdicts common
        top = data.draw(st.integers(1, instance.street_length + 2))
        prefs = data.draw(st.lists(st.integers(1, top), min_size=len(lengths), max_size=len(lengths)))
        assert is_parking_sequence(instance, prefs) is simulate(instance, prefs).success

    @pytest.mark.parametrize(
        "prefs", [(1,), (1, 2, 3), (0, 1), (True, 1), (1.0, 1)],
        ids=["short", "long", "zero", "bool", "float"],
    )
    def test_refuses_what_simulate_refuses(self, prefs):
        instance = ParkingInstance((1, 2), 1)
        with pytest.raises(ValueError) as refused:
            simulate(instance, prefs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            is_parking_sequence(instance, prefs)


class TestNecessaryCondition:
    def test_not_sufficient(self):
        assert necessary_condition(ParkingInstance((2, 2), 1), (2, 1))
        assert not is_parking_sequence(ParkingInstance((2, 2), 1), (2, 1))

    def test_needs_one_preference_at_most_z(self):
        assert not necessary_condition(ParkingInstance((1, 2), 1), (3, 3))

    def test_needs_t_plus_one_preferences_under_each_bound(self):
        # one preference is at most z + 1 where t = 1 asks for two
        assert not necessary_condition(ParkingInstance((1, 1), 1), (1, 3))

    def test_fig1_prefs(self):
        assert necessary_condition(ParkingInstance((1, 2, 2, 3), 4), (3, 7, 5, 3))

    def test_implied_by_membership(self):
        for instance in _grid():
            for prefs in _all_prefs(instance):
                if is_parking_sequence(instance, prefs):
                    assert necessary_condition(instance, prefs)

    def test_matches_the_counting_statement(self):
        # both directions, on every vector in [1..M+1]^n, so a rule admitting
        # extra vectors fails here, not only one rejecting members
        for instance in _grid():
            spots = range(1, instance.street_length + 2)
            for prefs in itertools.product(spots, repeat=instance.car_count):
                expected = counting_bounds(instance.lengths, instance.trailer_z, prefs)
                assert necessary_condition(instance, prefs) is expected, (instance, prefs)


class TestIncreasing:
    def test_examples(self):
        assert is_increasing_ps(ParkingInstance((2, 2), 1), (1, 3))
        assert not is_increasing_ps(ParkingInstance((2, 2), 1), (2, 2))
        assert not is_increasing_ps(ParkingInstance((1, 1, 4), 1), (1, 5, 6))

    def test_matches_nondecreasing_membership(self):
        for instance in _grid():
            for prefs in _all_prefs(instance):
                expected = all(
                    a <= b for a, b in zip(prefs, prefs[1:])
                ) and is_parking_sequence(instance, prefs)
                assert is_increasing_ps(instance, prefs) == expected


class TestStandardOrder:
    def test_fig1_is_not_standard(self):
        assert not parks_in_standard_order(ParkingInstance((1, 2, 2, 3), 4), (3, 7, 5, 3))

    def test_within_trailer_is_standard(self):
        instance = ParkingInstance((3, 1, 2), 2)
        for prefs in itertools.product((1, 2), repeat=3):
            assert parks_in_standard_order(instance, prefs)

    def test_gap_free_pair(self):
        assert parks_in_standard_order(ParkingInstance((2, 2), 1), (1, 3))

    def test_equals_the_prefix_caps(self):
        for instance in _grid():
            caps = standard_order_bounds(instance)
            for prefs in _all_prefs(instance):
                expected = all(c <= cap for c, cap in zip(prefs, caps))
                assert parks_in_standard_order(instance, prefs) == expected


class TestPermutationInvariant:
    def test_two_car_examples(self):
        instance = ParkingInstance((1, 2), 1)
        assert is_permutation_invariant(instance, (1, 1))
        assert not is_permutation_invariant(instance, (1, 2))

    def test_depends_on_length_gaps_not_just_order(self):
        assert is_permutation_invariant(ParkingInstance((4, 3, 1), 1), (1, 5, 1))
        assert not is_permutation_invariant(ParkingInstance((4, 3, 2), 1), (1, 5, 1))

    def test_matches_the_orbit_sweep(self):
        for instance in _grid():
            for prefs in _all_prefs(instance):
                assert is_permutation_invariant(instance, prefs) == orbit_parks(instance, prefs)

    @given(_up_to_six_cars())
    @settings(deadline=None)
    def test_matches_the_orbit_sweep_up_to_six_cars(self, case):
        lengths, z, prefs = case
        instance = ParkingInstance(lengths, z)
        assert is_permutation_invariant(instance, prefs) == orbit_parks(instance, prefs)

    @pytest.mark.parametrize("lengths, z", [((1,) * 6, 1), ((2, 1, 1, 1, 1, 2), 2), ((1, 1, 3, 1, 1, 1), 1)])
    def test_matches_the_orbit_sweep_with_four_or_more_copies(self, lengths, z):
        # four to six copies of one preference: its count field is 3 bits wide
        instance = ParkingInstance(lengths, z)
        spots, n = instance.street_length, instance.car_count
        verdicts = set()
        for copies in range(4, n + 1):
            for value in range(1, spots + 1):
                for rest in itertools.combinations_with_replacement(range(1, spots + 1), n - copies):
                    prefs = rest[:1] + (value,) * copies + rest[1:]
                    verdict = is_permutation_invariant(instance, prefs)
                    assert verdict == orbit_parks(instance, prefs), prefs
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_seven_and_eight_copies_fill_and_widen_the_field(self):
        # seven copies fill a 3-bit field; eight need a 4-bit one
        for lengths, z, prefs in [
            ((1,) * 8, 1, (1,) * 7 + (8,)),
            ((1,) * 8, 1, (8,) + (2,) * 7),
            ((1,) * 8, 1, (1,) * 8),
            ((1,) * 8, 2, (9,) * 8),
            ((2,) + (1,) * 7, 1, (1,) * 7 + (3,)),
            ((2,) + (1,) * 7, 1, (9,) + (1,) * 7),
        ]:
            instance = ParkingInstance(lengths, z)
            assert is_permutation_invariant(instance, prefs) == orbit_parks(instance, prefs), prefs

    def test_parks_each_part_of_the_pool_once(self, monkeypatch):
        # constant lengths and the eight distinct preferences z + i*k: each of
        # the 2^8 sub-multisets leaves one mask, so each (sub-multiset, value)
        # check parks once, 8 * 2^7 = 1,024 times
        calls = []

        def counted(free, pref, size):
            calls.append(pref)
            return _park(free, pref, size)

        monkeypatch.setattr(classify, "_park", counted)
        assert is_permutation_invariant(ParkingInstance((3,) * 8, 2), tuple(2 + 3 * i for i in range(8)))
        assert len(calls) == 1024

    def test_twelve_unit_cars(self):
        # 479,001,600 orderings; no sweep reaches this size
        instance = ParkingInstance((1,) * 12, 1)
        assert is_permutation_invariant(instance, range(1, 13))
        assert not is_permutation_invariant(instance, range(2, 14))

    def test_closed_under_rearrangement(self):
        instance = ParkingInstance((2, 2, 1), 1)
        for prefs in _all_prefs(instance):
            if is_permutation_invariant(instance, prefs):
                for other in distinct_permutations(prefs):
                    assert is_permutation_invariant(instance, other)
                break


class TestCharacterizedInvariance:
    def test_strictly_increasing(self):
        instance = ParkingInstance((1, 2, 3), 2)
        assert perm_invariant_characterized(instance, (2, 2, 2)) is True
        assert perm_invariant_characterized(instance, (1, 2, 3)) is False

    def test_constant(self):
        instance = ParkingInstance((2, 2), 1)
        assert perm_invariant_characterized(instance, (1, 3)) is True
        assert perm_invariant_characterized(instance, (1, 2)) is False

    def test_one_big_car_is_classical(self):
        instance = ParkingInstance((3, 1, 1), 1)
        assert perm_invariant_characterized(instance, (1, 2, 3)) is True

    def test_uncharacterized_lengths_return_none(self):
        instance = ParkingInstance((4, 3, 1), 1)
        assert perm_invariant_characterized(instance, (1, 1, 1)) is None

    def test_literal_dispatch_keeps_orderings_apart(self):
        # (1, 2) is the strictly increasing case, its rearrangement (2, 1) the
        # one-big-car case; the two verdicts must differ on (1, 2).
        assert perm_invariant_characterized(ParkingInstance((1, 2), 1), (1, 2)) is False
        assert perm_invariant_characterized(ParkingInstance((2, 1), 1), (1, 2)) is True

    def test_agrees_with_the_sweep(self):
        for instance in _grid():
            for prefs in itertools.combinations_with_replacement(
                range(1, instance.street_length + 1), instance.car_count
            ):
                verdict = perm_invariant_characterized(instance, prefs)
                if verdict is not None:
                    assert verdict == is_permutation_invariant(instance, prefs), (
                        instance,
                        prefs,
                    )

    def test_matches_the_literal_rule(self):
        # lengths over {1..4}, n <= 4, z <= 3, entries up to M + 2: every tuple
        # for n <= 2, every multiset in sorted and reversed order beyond that
        for n in range(1, 5):
            for lengths in itertools.product(range(1, 5), repeat=n):
                for z in (1, 2, 3):
                    instance = ParkingInstance(lengths, z)
                    if invariance_rule(lengths, z, (1,) * n) is None:
                        # the shape alone decides that there is no closed rule
                        assert perm_invariant_characterized(instance, (1,) * n) is None
                        continue
                    entries = range(1, instance.street_length + 3)
                    if n <= 2:
                        cases = itertools.product(entries, repeat=n)
                    else:
                        cases = itertools.chain.from_iterable(
                            (m, m[::-1])
                            for m in itertools.combinations_with_replacement(entries, n)
                        )
                    for prefs in cases:
                        assert perm_invariant_characterized(instance, prefs) == (
                            invariance_rule(lengths, z, prefs)
                        ), (lengths, z, prefs)

    def test_verify_builds_the_set_the_predicate_admits(self):
        # verify contracts once per instance and draws only the admissible values;
        # the oracle keeps every spot 1..M and calls the public predicate
        for _, instance, _ in _invariant_grid(5):
            assert _characterized_set(instance) == characterized_set(instance), instance

    def test_verdict_depends_only_on_the_multiset(self):
        # verify builds its characterized sets from sorted representatives
        for instance in _grid():
            for prefs in _all_prefs(instance):
                assert perm_invariant_characterized(instance, prefs) == (
                    perm_invariant_characterized(instance, tuple(sorted(prefs)))
                ), (instance, prefs)


class TestStrong:
    def test_pair_box(self):
        assert is_strong_ps((1, 2), 1, (1, 2))
        assert not is_strong_ps((1, 2), 1, (1, 3))

    def test_constant_lengths_reduce_to_membership(self):
        assert is_strong_ps((2, 2), 2, (4, 1))

    def test_mixed_pairs(self):
        assert is_strong_ps((1, 1, 2, 2), 1, (1, 2, 2, 1))

    def test_characterization_equals_definition(self):
        for instance in _grid(max_n=3):
            lengths, z = instance.lengths, instance.trailer_z
            for prefs in _all_prefs(instance):
                assert is_strong_ps(lengths, z, prefs) == is_strong_ps(
                    lengths, z, prefs, definitional=True
                )

    def test_definition_matches_the_arrangement_sweep(self):
        for instance in _grid():
            lengths, z = instance.lengths, instance.trailer_z
            for prefs in _all_prefs(instance):
                assert is_strong_ps(lengths, z, prefs, definitional=True) == (
                    arrangements_park(lengths, z, prefs)
                )

    @given(_up_to_six_cars())
    @settings(deadline=None)
    def test_definition_matches_the_arrangement_sweep_up_to_six_cars(self, case):
        lengths, z, prefs = case
        assert is_strong_ps(lengths, z, prefs, definitional=True) == (
            arrangements_park(lengths, z, prefs)
        )

    @pytest.mark.parametrize("lengths, z", [((1, 1, 1, 1, 2), 1), ((2, 2, 2, 2, 1, 3), 2), ((1,) * 7 + (3,), 1)])
    def test_definition_with_four_or_more_copies_of_one_length(self, lengths, z):
        # four to seven copies of one length: its count field is 3 bits wide,
        # and seven copies fill it
        rng = random.Random(4)
        spots = z + sum(lengths) - 1
        verdicts = set()
        for _ in range(120):
            top = rng.randint(1, spots)
            prefs = tuple(rng.randint(1, top) for _ in lengths)
            verdict = is_strong_ps(lengths, z, prefs, definitional=True)
            assert verdict == arrangements_park(lengths, z, prefs), prefs
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_twelve_distinct_lengths(self):
        # 479,001,600 arrangements; no sweep reaches this size
        assert is_strong_ps(range(1, 13), 1, (1,) * 12, definitional=True)

    def test_pool_longer_than_the_recursion_limit(self):
        assert is_strong_ps((1,) * 600, 1, (1,) * 600, definitional=True)

    def test_characterization_runs_no_simulation(self, monkeypatch):
        # the caps of standard_order_bounds decide it; no car is parked
        monkeypatch.setattr(classify, "_park", None)
        assert is_strong_ps((2, 1, 2), 1, (1, 2, 4))
        assert not is_strong_ps((2, 1, 2), 1, (1, 3, 1))


class TestKStrong:
    def test_listed_sets_for_three_unit_weights(self):
        members = [
            prefs
            for prefs in itertools.product((1, 2, 3), repeat=2)
            if is_k_strong(3, 2, 1, prefs)
        ]
        assert members == [(1, 1), (1, 2)]
        assert [p for p in itertools.product((1, 2, 3), repeat=1) if is_k_strong(3, 1, 1, p)] == [
            (1,)
        ]

    def test_full_length_case_is_permutation_closed(self):
        assert is_k_strong(3, 3, 1, (3, 2, 1))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="need 1 <= k <= 3, got 4"):
            is_k_strong(3, 4, 1, (1, 1, 1, 1))
        for definitional in (False, True):
            for total, k, prefs, message in (
                (3, True, (1,), "car count must be an integer"),
                (3, 2.0, (1, 1), "car count must be an integer"),
                (3.0, 2, (1, 1), "street weight must be an integer"),
                (3, "2", (1, 1), "car count must be an integer"),
                ("3", 2, (1, 1), "street weight must be an integer"),
            ):
                with pytest.raises(ValueError, match=message):
                    is_k_strong(total, k, 1, prefs, definitional=definitional)

    def test_characterization_equals_definition(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                for z in (1, 2):
                    for prefs in itertools.product(range(1, z + n), repeat=k):
                        assert is_k_strong(n, k, z, prefs) == is_k_strong(
                            n, k, z, prefs, definitional=True
                        )

    def test_definition_matches_the_product_sweep(self):
        # the car-by-car frontier against every composition parked outright;
        # k = total has the one composition (1, ..., 1), swept here to total 5
        for total in range(1, 7):
            for k in range(1, min(total, 5) + 1):
                for z in (1, 2):
                    members = set(k_strong_sweep(total, k, z))
                    for prefs in itertools.product(range(1, z + total), repeat=k):
                        verdict = is_k_strong(total, k, z, prefs, definitional=True)
                        assert verdict == (prefs in members), (total, k, z, prefs)

    def test_definition_at_sizes_no_composition_sweep_reaches(self):
        # C(39, 19) compositions, about 6.9e10
        assert is_k_strong(40, 20, 1, (1,) * 20, definitional=True)
        assert not is_k_strong(40, 20, 1, (2,) + (1,) * 19, definitional=True)
        assert is_k_strong(40, 20, 1, (1,) * 19 + (2,), definitional=True)


class TestUParkingFunction:
    def test_classical_examples(self):
        assert is_u_parking_function((1, 2, 3, 4), (1, 2, 4, 1))
        assert not is_u_parking_function((1, 2, 3, 4), (2, 2, 4, 2))

    def test_boundary_equality(self):
        assert is_u_parking_function((3, 3, 3), (3, 3, 3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_u_parking_function((1, 2), (1, 1, 1))

    def test_empty_boundary_rejected(self):
        with pytest.raises(ValueError, match="^boundary must not be empty$"):
            check_boundary(())

    @given(st.permutations([1, 1, 2, 4]))
    def test_invariant_under_rearrangement(self, shuffled):
        assert is_u_parking_function((1, 2, 3, 4), shuffled) == is_u_parking_function(
            (1, 2, 3, 4), (1, 1, 2, 4)
        )


def test_compositions_cover_and_sum():
    parts = list(compositions(4, 2))
    assert parts == [(1, 3), (2, 2), (3, 1)]
    assert all(sum(p) == 6 for p in compositions(6, 3))
    # refused at the call, before any composition is asked for
    with pytest.raises(ValueError):
        compositions(3, 4)
    for total, parts, message in (("3", 2, "total"), (3, "2", "part count")):
        with pytest.raises(ValueError, match=f"{message} must be an integer"):
            compositions(total, parts)


def test_nondecreasing_members_park_standard():
    # nondecreasing and successful implies index order, hence the prefix caps
    instance = ParkingInstance((1, 3, 2), 2)
    for prefs in itertools.combinations_with_replacement(
        range(1, instance.street_length + 1), 3
    ):
        if simulate(instance, prefs).success:
            assert parks_in_standard_order(instance, prefs)
