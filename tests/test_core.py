"""Simulator behaviour, pinned example runs, and process invariants."""

import dataclasses
import enum
import functools
import itertools
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweeps import park_on_spots

from parkseq import (
    FailureReason,
    LatticePath,
    ParkingInstance,
    check_boundary,
    is_parking_sequence,
    simulate,
    standard_order_bounds,
)
from parkseq.core import (
    _as_int_tuple, _nondecreasing_under, _park, check_preferences,
)


def test_street_length_fig1_instance():
    assert ParkingInstance((1, 2, 2, 3), 4).street_length == 11


def test_street_length_single_unit_car():
    assert ParkingInstance((1,), 1).street_length == 1


def test_street_length_two_pairs_no_trailer():
    assert ParkingInstance((2, 2), 1).street_length == 4


def test_fig1_run_places_every_car():
    outcome = simulate(ParkingInstance((1, 2, 2, 3), 4), (3, 7, 5, 3))
    assert outcome.success
    assert outcome.placements == ((4, 4), (7, 8), (5, 6), (9, 11))
    assert outcome.configuration == (1, 3, 2, 4)


def test_swapped_pair_collides():
    outcome = simulate(ParkingInstance((2, 2), 1), (2, 1))
    assert not outcome.success
    assert outcome.failed_car == 2
    assert outcome.reason is FailureReason.COLLISION
    assert outcome.blocked_spot == 2
    assert outcome.placements == ((2, 3),)


def test_big_car_last_succeeds_but_sorted_does_not():
    instance = ParkingInstance((1, 1, 4), 1)
    assert simulate(instance, (5, 6, 1)).success
    rearranged = simulate(instance, (1, 5, 6))
    assert not rearranged.success
    assert rearranged.failed_car == 3
    assert rearranged.reason is FailureReason.COLLISION


def test_off_street_when_no_empty_spot_remains():
    outcome = simulate(ParkingInstance((1,), 1), (2,))
    assert outcome.reason is FailureReason.OFF_STREET
    assert outcome.failed_car == 1


def test_collision_past_street_end_reports_no_blocked_spot():
    # car 2 lands on spot 3 but would need spots 3-4 on a 3-spot street
    outcome = simulate(ParkingInstance((1, 2), 1), (2, 3))
    assert outcome.reason is FailureReason.COLLISION
    assert outcome.blocked_spot is None
    assert outcome.attempted_start == 3


def test_preference_length_must_match():
    with pytest.raises(ValueError):
        simulate(ParkingInstance((1, 2), 1), (1,))


def test_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        ParkingInstance((1, 0), 1)
    with pytest.raises(ValueError, match=r"trailer parameter must be >= 1, got 0$"):
        ParkingInstance((1,), 0)
    with pytest.raises(ValueError):
        simulate(ParkingInstance((1,), 1), (0,))


def test_rejects_float_lengths():
    with pytest.raises(ValueError):
        ParkingInstance((1.5, 2), 1)
    with pytest.raises(ValueError):
        ParkingInstance((True, 2), 1)


def test_standard_order_bounds_are_prefix_sums():
    assert standard_order_bounds(ParkingInstance((1, 2, 2, 3), 4)) == (4, 5, 7, 9)
    assert standard_order_bounds(ParkingInstance((2, 2), 1)) == (1, 3)


def _exact_cover(instance, outcome):
    taken = set(range(1, instance.trailer_z))
    for start, end in outcome.placements:
        span = set(range(start, end + 1))
        if taken & span:
            return False
        taken |= span
    return taken == set(range(1, instance.street_length + 1))


def _small_instances():
    for n in (1, 2, 3):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2):
                yield ParkingInstance(lengths, z)


def test_success_covers_the_street_exactly():
    for instance in _small_instances():
        spots = instance.street_length
        for prefs in itertools.product(range(1, spots + 1), repeat=instance.car_count):
            outcome = simulate(instance, prefs)
            if outcome.success:
                assert _exact_cover(instance, outcome)
                assert sorted(outcome.configuration) == list(
                    range(1, instance.car_count + 1)
                )
            else:
                assert outcome.configuration == ()
                assert len(outcome.placements) == outcome.failed_car - 1


def test_preferences_within_trailer_park_in_index_order():
    for instance in _small_instances():
        identity = tuple(range(1, instance.car_count + 1))
        for prefs in itertools.product(
            range(1, instance.trailer_z + 1), repeat=instance.car_count
        ):
            outcome = simulate(instance, prefs)
            assert outcome.success
            assert outcome.configuration == identity


def test_nondecreasing_success_parks_in_index_order():
    for instance in _small_instances():
        spots = instance.street_length
        identity = tuple(range(1, instance.car_count + 1))
        for prefs in itertools.combinations_with_replacement(
            range(1, spots + 1), instance.car_count
        ):
            outcome = simulate(instance, prefs)
            if outcome.success:
                assert outcome.configuration == identity


@st.composite
def _instance_and_prefs(draw):
    lengths = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    z = draw(st.integers(1, 4))
    prefs = tuple(
        draw(st.lists(st.integers(1, 30), min_size=len(lengths), max_size=len(lengths)))
    )
    return ParkingInstance(lengths, z), prefs


@given(_instance_and_prefs())
@settings(deadline=None)
def test_replay_is_bit_identical_and_covers_on_success(case):
    instance, prefs = case
    first = simulate(instance, prefs)
    again = simulate(instance, list(prefs))
    assert first == again
    if first.success:
        assert _exact_cover(instance, first)


@given(_instance_and_prefs())
@settings(deadline=None)
def test_success_only_kernel_agrees_with_simulate(case):
    instance, prefs = case
    outcome = simulate(instance, prefs)
    lift = instance.trailer_z - 1  # the kernel's street starts at spot z, its bit 1
    free, left = instance._empty_street, []
    for pref, size in zip(prefs, instance.lengths):
        free = _park(free, max(pref - lift, 1), size)
        if free is None:
            break
        left.append(free)
    # car by car the kernel clears the blocks simulate places, and the cars
    # of a success fill the street exactly
    blocks = [sum(1 << s - lift for s in range(first, last + 1))
              for first, last in outcome.placements]
    assert left == [instance._empty_street - taken for taken in itertools.accumulate(blocks)]
    assert free == (0 if outcome.success else None)


def _fields(outcome):
    return tuple(getattr(outcome, field.name) for field in dataclasses.fields(outcome))


# four cars: every vector of total length at most 5, and one with every length
_FOUR_CARS = ((1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2), (1, 2, 1, 3))


def test_simulate_matches_the_spot_list_oracle_exhaustively():
    # every field, on every case with lengths in {1,2,3}^n, n <= 3 (and the
    # four-car vectors above), z in {1, 2, 3, 5} and preferences in
    # [1..M+1]^n, so off-street failures and preferences on both sides of the
    # trailer's end are covered; the oracle knows nothing of the shift that
    # simulate parks by. is_parking_sequence, which parks without simulate,
    # gives the success field. 209,647 vectors.
    grid = [lengths for n in (1, 2, 3) for lengths in itertools.product((1, 2, 3), repeat=n)]
    for lengths in grid + list(_FOUR_CARS):
        for z in (1, 2, 3, 5):
            instance = ParkingInstance(lengths, z)
            top = instance.street_length + 1
            for prefs in itertools.product(range(1, top + 1), repeat=len(lengths)):
                expected = park_on_spots(lengths, z, prefs)
                assert _fields(simulate(instance, prefs)) == expected, (lengths, z, prefs)
                assert is_parking_sequence(instance, prefs) is expected[0], (lengths, z, prefs)


@st.composite
def _up_to_six_cars(draw):
    lengths = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    z = draw(st.integers(1, 4))
    top = z + sum(lengths)  # M + 1
    prefs = tuple(draw(st.lists(st.integers(1, top), min_size=len(lengths), max_size=len(lengths))))
    return lengths, z, prefs


@given(_up_to_six_cars())
@settings(deadline=None, max_examples=500)
def test_simulate_matches_the_spot_list_oracle(case):
    lengths, z, prefs = case
    assert _fields(simulate(ParkingInstance(lengths, z), prefs)) == park_on_spots(lengths, z, prefs)


class _Size(enum.IntEnum):
    ONE = 1
    TWO = 2


def _index_types():
    np = pytest.importorskip("numpy")
    return np.int64(1), _Size.ONE, np.int64(2), _Size.TWO


def test_index_types_come_back_as_exact_ints():
    one, enum_one, two, enum_two = _index_types()
    instance = ParkingInstance((one, enum_two), enum_two)
    assert instance == ParkingInstance((1, 2), 2)
    checked = (
        instance.lengths,
        (instance.trailer_z,),
        check_preferences(instance, (enum_one, two)),
        check_boundary((one, enum_two)),
        LatticePath((0, enum_one), (one, enum_two), two).xs,
        LatticePath((0, 1), (enum_one, two), 2).boundary,
    )
    for values in checked:
        assert all(type(x) is int for x in values), values


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_non_integers_keep_their_messages(bad):
    with pytest.raises(ValueError, match="^car lengths must be integers$"):
        ParkingInstance((1, bad), 1)
    with pytest.raises(ValueError, match="^preferences must be integers$"):
        check_preferences(ParkingInstance((1, 1), 1), (bad, 1))
    with pytest.raises(ValueError, match="^boundary must be integers$"):
        check_boundary((1, bad))
    with pytest.raises(ValueError, match="^north steps must be integers$"):
        LatticePath((0, bad), (1, 2), 2)


def _as_int_tuple_by_definition(values, what, minimum):
    """Exact ints by ``operator.index``, no booleans, every value >= minimum; else the message."""
    if any(type(x) is bool for x in values):
        return f"{what} must be integers"
    try:
        out = tuple(operator.index(x) for x in values)
    except TypeError:
        return f"{what} must be integers"
    if out and min(out) < minimum:
        return f"{what} must all be >= {minimum}, got {out}"
    return out


@pytest.mark.parametrize("what", ["car lengths", "preferences", "boundary", "north steps"])
def test_as_int_tuple_matches_its_definition_on_mixed_tuples(what):
    one, enum_one, two, enum_two = _index_types()
    pool = (0, 1, 2, True, False, 1.0, "1", None, one, enum_one, two, enum_two)
    for n in range(4):
        for values in itertools.product(pool, repeat=n):
            for minimum in (0, 1):
                expected = _as_int_tuple_by_definition(values, what, minimum)
                if isinstance(expected, str):
                    with pytest.raises(ValueError) as caught:
                        _as_int_tuple(values, what, minimum)
                    assert str(caught.value) == expected, values
                else:
                    out = _as_int_tuple(iter(values), what, minimum)
                    assert out == expected and type(out) is tuple, values
                    assert all(type(x) is int for x in out), values


def test_nondecreasing_under_matches_its_definition():
    for n in range(1, 4):
        for prefs in itertools.product(range(1, 5), repeat=n):
            definition_sorted = all(a <= b for a, b in zip(prefs, prefs[1:]))
            for bounds in itertools.product(range(1, 5), repeat=n):
                expected = definition_sorted and all(c <= u for c, u in zip(prefs, bounds))
                assert _nondecreasing_under(prefs, bounds) is expected, (prefs, bounds)


def _geometry_grid():
    for n in range(1, 5):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2, 3):
                yield lengths, z


def test_stored_geometry_matches_a_recomputation():
    for lengths, z in _geometry_grid():
        instance = ParkingInstance(lengths, z)
        sums = tuple(itertools.accumulate(lengths, initial=z))
        for _ in range(2):  # the first read computes, the second reads what was kept
            assert standard_order_bounds(instance) == sums[:-1]
            assert instance.street_length == sums[-1] - 1
            assert instance._empty_street == sum(1 << j for j in range(1, sums[-1] - z + 1))


def test_geometry_is_computed_on_first_read_only():
    instance = ParkingInstance((2, 1, 3), 2)
    assert "street_length" not in vars(instance) and "_bounds" not in vars(instance)
    assert standard_order_bounds(instance) == (2, 4, 5)
    assert vars(instance)["_bounds"] == (2, 4, 5) and "street_length" not in vars(instance)
    for name in ("street_length", "_bounds"):
        assert isinstance(vars(ParkingInstance)[name], functools.cached_property)


def test_reading_the_geometry_leaves_the_value_alone():
    fields = [field.name for field in dataclasses.fields(ParkingInstance)]
    assert fields == ["lengths", "trailer_z"]
    for lengths, z in _geometry_grid():
        read, fresh = ParkingInstance(lengths, z), ParkingInstance(lengths, z)
        assert standard_order_bounds(read) and read.street_length
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert dataclasses.astuple(read) == (lengths, z)
        copy = pickle.loads(pickle.dumps(read))
        assert copy == fresh and standard_order_bounds(copy) == standard_order_bounds(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.street_length = 0


def test_lattice_paths_stay_frozen_and_pickle():
    path = LatticePath((0, 1, 1), (1, 3, 4), 5)
    for name, value in (("xs", (0, 0, 0)), ("width", 6), ("boundary", (1, 1, 1))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(path, name, value)
    assert pickle.loads(pickle.dumps(path)) == path
    unchecked = LatticePath._unchecked((0, 1, 1), (1, 3, 4), 5)
    assert unchecked == path and hash(unchecked) == hash(path) and repr(unchecked) == repr(path)
