"""Round trips and image equalities for the two invertible maps."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sweeps import contraction_shape

from parkseq import (
    LatticePath,
    ParkingInstance,
    enum_ips,
    enum_lattice_paths,
    enum_ps_inv,
    enum_u_pf,
    from_vector_parking_function,
    ips_to_lattice_path,
    lattice_path_to_ips,
    standard_order_bounds,
    to_vector_parking_function,
)
from parkseq import biject
from parkseq.biject import _contract, _expand, _from_path, _invariant_contraction, _to_path
from parkseq.verify import _instance_grid, _invariant_grid


class TestLatticePathMap:
    def test_two_pairs(self):
        path = ips_to_lattice_path(ParkingInstance((2, 2), 1), (1, 3))
        assert path.xs == (0, 2)
        assert path.boundary == (1, 3)
        assert path.width == 4

    def test_single_car(self):
        path = ips_to_lattice_path(ParkingInstance((1,), 3), (2,))
        assert path.xs == (1,)
        assert path.boundary == (3,)

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            ips_to_lattice_path(ParkingInstance((2, 2), 1), (2, 1))

    def test_inverse_shift(self):
        instance = ParkingInstance((2, 2), 1)
        path = LatticePath((0, 2), (1, 3), 4)
        assert lattice_path_to_ips(instance, path) == (1, 3)

    def test_boundary_mismatch_rejected(self):
        path = LatticePath((0, 2), (1, 3), 4)
        with pytest.raises(ValueError):
            lattice_path_to_ips(ParkingInstance((1, 2), 1), path)

    def test_width_mismatch_rejected(self):
        path = LatticePath((0, 0), (1, 2), 2)  # the instance's street has 3 spots
        with pytest.raises(ValueError, match="^path width 2 does not match street length 3$"):
            lattice_path_to_ips(ParkingInstance((1, 2), 1), path)

    def test_round_trip_on_a_family(self):
        for lengths, z in (((1, 2, 2, 3), 4), ((2, 1, 3), 2), ((1, 1, 1), 1)):
            instance = ParkingInstance(lengths, z)
            members = enum_ips(instance).members
            paths = [ips_to_lattice_path(instance, prefs) for prefs in members]
            assert [lattice_path_to_ips(instance, p) for p in paths] == list(members)
            swept = enum_lattice_paths(standard_order_bounds(instance), instance.street_length)
            assert [p.xs for p in paths] == [p.xs for p in swept]

    def test_drawn_path_maps_back(self):
        # the boundary (3, 4, 5, 8) with width 8 matches lengths (1, 1, 3, 1), z = 3
        path = LatticePath((2, 3, 3, 7), (3, 4, 5, 8), 8)
        instance = ParkingInstance((1, 1, 3, 1), 3)
        assert standard_order_bounds(instance) == (3, 4, 5, 8)
        assert lattice_path_to_ips(instance, path) == (3, 4, 4, 8)
        assert ips_to_lattice_path(instance, (3, 4, 4, 8)) == path

    def test_outcomes_are_pinned(self):
        # lengths (2, 1, 3), z = 2: boundary (2, 4, 5), width 7
        instance = ParkingInstance((2, 1, 3), 2)
        not_member = "{} is not a nondecreasing member for this instance"
        for prefs, outcome in (
            ((1, 1, 1), (0, 0, 0)),
            ((2, 1, 1), not_member.format((2, 1, 1))),
            ((1, 1, 5), (0, 0, 4)),
            ((0, 1, 1), "preferences must all be >= 1, got (0, 1, 1)"),
            ((1, 1), "expected 3 preferences, got 2"),
            ((1.0, 1, 1), "preferences must be integers"),
            ((True, 1, 1), "preferences must be integers"),
            ((2, 4, 5), (1, 3, 4)),
            ((2, 4, 6), not_member.format((2, 4, 6))),
            ("abc", "preferences must be integers"),
            ((1, 1, -1), "preferences must all be >= 1, got (1, 1, -1)"),
        ):
            if isinstance(outcome, str):
                with pytest.raises(ValueError) as caught:
                    ips_to_lattice_path(instance, prefs)
                assert str(caught.value) == outcome
            else:
                assert ips_to_lattice_path(instance, prefs) == LatticePath(outcome, (2, 4, 5), 7)

    def test_unchecked_constructor_is_private(self):
        assert "_unchecked" not in biject.__all__

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticePath((2, 1), (3, 3), 3)  # decreasing steps
        with pytest.raises(ValueError):
            LatticePath((0, 3), (1, 3), 3)  # crosses the boundary
        with pytest.raises(ValueError, match="overrun width 1$"):
            LatticePath((0, 2), (1, 3), 1)  # overruns the width
        with pytest.raises(ValueError, match="^expected 2 north steps, got 1$"):
            LatticePath((0,), (1, 2), 1)
        for width in (1.5, True, "1"):
            with pytest.raises(ValueError, match="width must be an integer$"):
                LatticePath((0,), (1,), width)


class TestOffsetContraction:
    def test_contract_examples(self):
        assert to_vector_parking_function(1, 4, (1, 5, 1)) == (1, 2, 1)
        assert to_vector_parking_function(2, 3, (2, 2)) == (2, 2)
        assert to_vector_parking_function(1, 2, (1, 3, 5)) == (1, 2, 3)

    def test_expand_examples(self):
        assert from_vector_parking_function(1, 4, (1, 2, 1)) == (1, 5, 1)
        assert from_vector_parking_function(3, 2, (3, 4)) == (3, 5)

    def test_round_trips(self):
        for z, step, prefs in ((1, 4, (1, 5, 1)), (2, 3, (2, 2)), (1, 2, (1, 3, 5))):
            assert from_vector_parking_function(z, step, to_vector_parking_function(z, step, prefs)) == prefs

    def test_off_grid_entries_rejected(self):
        with pytest.raises(ValueError):
            to_vector_parking_function(1, 4, (1, 3, 1))

    def test_trailer_validated(self):
        for trailer, message in (
            (0, "trailer parameter must be >= 1, got 0"),
            (-1, "trailer parameter must be >= 1, got -1"),
            (1.5, "trailer parameter must be an integer"),
            (True, "trailer parameter must be an integer"),
            ("1", "trailer parameter must be an integer"),
        ):
            for convert in (to_vector_parking_function, from_vector_parking_function):
                with pytest.raises(ValueError) as caught:
                    convert(trailer, 1, (1, 3))
                assert str(caught.value) == message

    def test_maps_invariant_family_onto_boundary_family(self):
        # one representative pair beyond the verify sweeps
        inv = enum_ps_inv(ParkingInstance((2, 2), 1))
        assert inv.members == ((1, 1), (1, 3), (3, 1))
        image = sorted(to_vector_parking_function(1, 2, prefs) for prefs in inv.members)
        assert tuple(image) == enum_u_pf((1, 2)).members

    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.lists(st.integers(0, 6), min_size=1, max_size=5),
    )
    def test_sorting_commutes_with_the_map(self, z, step, offsets):
        prefs = tuple(z + s * step if s else z for s in offsets)
        mapped = to_vector_parking_function(z, step, prefs)
        assert tuple(sorted(mapped)) == to_vector_parking_function(
            z, step, tuple(sorted(prefs))
        )


def test_boundary_builders():
    # constant lengths and one big car ahead of unit cars: (z, z+1, ..., z+n-1)
    assert _invariant_contraction(ParkingInstance((1, 1, 1, 1), 2)) == (1, (2, 3, 4, 5))
    assert _invariant_contraction(ParkingInstance((2, 2, 2), 1)) == (2, (1, 2, 3))
    assert _invariant_contraction(ParkingInstance((3, 1, 1, 1), 2)) == (1, (2, 3, 4, 5))
    # two blocks (a^r, b^(n-r)): n - r + 1 copies of z, then z+1, ..., z+r-1
    assert _invariant_contraction(ParkingInstance((1, 1, 1, 2), 1)) == (1, (1, 1, 2, 3))
    assert _invariant_contraction(ParkingInstance((2, 3, 3), 2)) == (2, (2, 2, 2))
    # strictly increasing: (z, ..., z); any other shape has no boundary
    assert _invariant_contraction(ParkingInstance((1, 2, 4), 3)) == (1, (3, 3, 3))
    assert _invariant_contraction(ParkingInstance((2, 1, 2), 1)) is None
    for lengths, z, message in (
        ((1, 1, 2), 0, "trailer parameter must be >= 1, got 0"),
        ((), 1, "an instance needs at least one car"),
        ((1, True), 1, "car lengths must be integers"),
        ((1, 0, 1), 1, "car lengths must all be >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            _invariant_contraction(ParkingInstance(lengths, z))


def test_contraction_matches_its_restatement_on_every_small_shape():
    # every length vector in {1,2,3,4}^n, n <= 5, so a leading 1 before unit
    # cars, or a unit car among bigger ones, meets every scan of the dispatch
    for n in range(1, 6):
        for lengths in itertools.product((1, 2, 3, 4), repeat=n):
            for z in (1, 2):
                expected = contraction_shape(lengths, z)
                assert _invariant_contraction(ParkingInstance(lengths, z)) == expected, (lengths, z)


def test_public_maps_are_their_kernels_on_the_gate_grid():
    # the gate's bijections suite runs the kernels alone; here every public map
    # equals its kernel on the same members, and inverts its partner
    for instance in _instance_grid(3):
        bounds, width = standard_order_bounds(instance), instance.street_length
        for prefs in enum_ips(instance).members:
            path = ips_to_lattice_path(instance, prefs)
            assert path == LatticePath(_to_path(prefs), bounds, width)
            assert lattice_path_to_ips(instance, path) == _from_path(path.xs) == prefs
        for path in enum_lattice_paths(bounds, width):
            assert ips_to_lattice_path(instance, lattice_path_to_ips(instance, path)) == path
    for kind, instance, _ in _invariant_grid(3):
        if kind not in ("constant", "two-block"):
            continue
        z = instance.trailer_z
        step, boundary = _invariant_contraction(instance)
        for prefs in enum_ps_inv(instance).members:
            image = to_vector_parking_function(z, step, prefs)
            assert image == _contract(z, step, prefs)
            assert from_vector_parking_function(z, step, image) == _expand(z, step, image) == prefs
        for values in enum_u_pf(boundary).members:
            expanded = from_vector_parking_function(z, step, values)
            assert to_vector_parking_function(z, step, expanded) == values
