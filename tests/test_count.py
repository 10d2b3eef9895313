"""Closed-form counts against independent oracles and pinned small values."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from sweeps import bounded_nondecreasing_count

from parkseq import (
    ParkingInstance,
    count_inv_constant,
    count_inv_strictly_increasing,
    count_inv_two_block,
    count_ips_constant,
    count_ips_determinant,
    count_ps_product,
    count_sps,
    count_sps_k,
    enum_ips,
    enum_ps_inv,
    enum_sps_k,
    enum_u_pf,
    fuss_catalan,
)
from parkseq.count import _u_parking


def _fraction_determinant(matrix):
    # independent oracle: Gaussian elimination over the rationals
    rows = [[Fraction(entry) for entry in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, len(rows)):
                rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return int(det)


def _catalan_by_recurrence(limit):
    # independent oracle: C_0 = 1, C_{m+1} = sum C_i C_{m-i}
    values = [1]
    for m in range(limit):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values


class TestProductCount:
    def test_fig1_instance(self):
        assert count_ps_product((1, 2, 2, 3), 4) == 2880

    def test_unit_cars_classical(self):
        assert count_ps_product((1, 1, 1), 1) == 16

    def test_single_car(self):
        assert count_ps_product((1,), 7) == 7


class TestDeterminant:
    def test_unit_cars_is_catalan(self):
        assert count_ips_determinant((1, 1, 1), 1) == 5

    def test_two_pairs(self):
        assert count_ips_determinant((2, 2), 1) == 3

    def test_one_by_one_matrix(self):
        assert count_ips_determinant((1,), 3) == 3

    def test_matches_enumeration_on_a_grid(self):
        for n in (1, 2, 3):
            for lengths in itertools.product((1, 2, 3), repeat=n):
                for z in (1, 2):
                    assert count_ips_determinant(lengths, z) == enum_ips(
                        ParkingInstance(lengths, z)
                    ).cardinality

    def test_matches_bounded_sequence_dp_up_to_n_200(self):
        rng = random.Random(4242)
        for n in list(range(1, 41)) + [50, 100, 150, 200]:
            lengths = tuple(rng.randint(1, 4) for _ in range(n))
            z = rng.randint(1, 3)
            assert count_ips_determinant(lengths, z) == bounded_nondecreasing_count(
                lengths, z
            ), (lengths, z)

    @pytest.mark.parametrize("n", [300, 400, 600])
    def test_matches_bounded_sequence_dp_past_any_listing(self, n):
        rng = random.Random(n)
        lengths = tuple(rng.randint(1, 4) for _ in range(n))
        z = rng.randint(1, 3)
        assert count_ips_determinant(lengths, z) == bounded_nondecreasing_count(lengths, z)

    @pytest.mark.parametrize("n", [100, 300])
    def test_unit_cars_match_the_catalan_recurrence(self, n):
        # b_i = i, so the first half of the rows stop short of the last minor
        assert count_ips_determinant((1,) * n, 1) == _catalan_by_recurrence(n)[n]

    def test_matches_rational_elimination_of_the_full_matrix(self):
        rng = random.Random(2020)
        for _ in range(200):
            n = rng.randint(1, 8)
            lengths = tuple(rng.randint(1, 4) for _ in range(n))
            z = rng.randint(1, 4)
            bounds = list(itertools.accumulate(lengths[:-1], initial=z))
            # C(b, m), 0 past either end of the row: the library computes no entry
            matrix = [
                [math.comb(bounds[i], j - i + 1) if j >= i - 1 else 0 for j in range(n)]
                for i in range(n)
            ]
            assert count_ips_determinant(lengths, z) == _fraction_determinant(matrix), (
                lengths,
                z,
            )

    def test_matches_constant_closed_form(self):
        for size in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                for z in (1, 2, 3, 4):
                    assert count_ips_determinant((size,) * n, z) == count_ips_constant(
                        size, n, z
                    )


class TestConstantAndFuss:
    def test_constant_values(self):
        assert count_ips_constant(2, 2, 1) == 3
        assert count_ips_constant(1, 3, 1) == 5
        assert count_ips_constant(1, 1, 1) == 1

    def test_fuss_values(self):
        assert fuss_catalan(2, 2) == 3
        assert fuss_catalan(1, 4) == 14
        assert fuss_catalan(5, 1) == 1

    def test_fuss_order_one_is_catalan(self):
        catalan = _catalan_by_recurrence(10)
        for n in range(1, 11):
            assert fuss_catalan(1, n) == catalan[n]

    def test_fuss_equals_constant_count_without_trailer(self):
        for size in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                assert fuss_catalan(size, n) == count_ips_constant(size, n, 1)


class TestInvariantCounts:
    def test_strictly_increasing(self):
        assert count_inv_strictly_increasing(2, 1) == 1
        assert count_inv_strictly_increasing(3, 2) == 8
        assert count_inv_strictly_increasing(1, 1) == 1

    def test_strictly_increasing_matches_sweep(self):
        assert enum_ps_inv(ParkingInstance((1, 2, 3), 2)).cardinality == 8

    def test_constant(self):
        assert count_inv_constant(2, 1) == 3
        assert count_inv_constant(3, 1) == 16
        assert count_inv_constant(1, 5) == 5

    def test_constant_matches_sweep(self):
        assert enum_ps_inv(ParkingInstance((2, 2, 2), 1)).cardinality == 16

    def test_two_block(self):
        assert count_inv_two_block(2, 1, 1) == 1
        assert count_inv_two_block(3, 2, 1) == 4
        for n in (2, 3, 4):
            for z in (1, 2, 3):
                assert count_inv_two_block(n, 1, z) == z**n

    def test_two_block_matches_sweep(self):
        assert enum_ps_inv(ParkingInstance((1, 1, 2), 1)).cardinality == 4

    def test_two_block_independent_of_the_sizes(self):
        # same count for any small < large pair, here swept for n = 3, r = 2
        cards = {
            enum_ps_inv(ParkingInstance((small, small, large), 1)).cardinality
            for small, large in ((1, 2), (1, 3), (2, 3))
        }
        assert cards == {count_inv_two_block(3, 2, 1)}

    def test_two_block_needs_valid_r(self):
        with pytest.raises(ValueError):
            count_inv_two_block(3, 3, 1)
        for r in (True, 1.5, "2"):
            with pytest.raises(ValueError, match="leading block length must be an integer"):
                count_inv_two_block(4, r, 1)

    def test_two_block_pair_gets_one_message(self):
        for n, r, message in (
            (0, 1, "car count must be >= 1, got 0"),
            (3, 0, "need 1 <= r < 3, got 0"),
            (3, 3, "need 1 <= r < 3, got 3"),
            (1, 1, "need 1 <= r < 1, got 1"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                count_inv_two_block(n, r, 1)


class TestStrongCounts:
    def test_pair(self):
        for small, large, z in ((1, 2, 1), (1, 3, 2), (2, 3, 3)):
            assert count_sps((small, large), z) == z * (z + small)

    def test_three_cars(self):
        assert count_sps((1, 1, 2), 1) == 6

    def test_constant_delegates_to_the_product(self):
        for z in (1, 2, 3):
            assert count_sps((2, 2), z) == count_ps_product((2, 2), z)

    def test_sorting_is_internal(self):
        assert count_sps((2, 1, 2), 1) == count_sps((1, 2, 2), 1)

    def test_rejects_empty_lengths(self):
        for count in (count_sps, count_ps_product):
            with pytest.raises(ValueError, match="an instance needs at least one car"):
                count((), 1)


class TestKStrongCounts:
    def test_values(self):
        assert count_sps_k(3, 2, 1) == 2
        assert count_sps_k(3, 3, 1) == 16
        assert count_sps_k(5, 1, 1) == 1

    def test_rising_factorial_for_k_below_total(self):
        # z(z+1)...(z+k-1) for every k < total
        for total in range(2, 9):
            for k in range(1, total):
                for z in range(1, 6):
                    assert count_sps_k(total, k, z) == math.prod(range(z, z + k))

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            count_sps_k(3, 0, 1)
        for k in (True, 2.5, "2"):
            for call in (count_sps_k, enum_sps_k):
                with pytest.raises(ValueError, match="car count must be an integer"):
                    call(5, k, 1)
        for call in (count_sps_k, enum_sps_k):
            with pytest.raises(ValueError, match="street weight must be an integer"):
                call("3", 2, 1)
            with pytest.raises(ValueError, match=r"need 1 <= k <= 3, got 4"):
                call(3, 4, 1)


class TestArithmeticBoundaryCount:
    def test_values(self):
        assert count_inv_constant(3, 1) == 16
        assert count_inv_constant(2, 2) == 8
        assert count_inv_constant(1, 9) == 9

    def test_matches_sweep(self):
        assert enum_u_pf((2, 3)).cardinality == 8
        assert enum_u_pf((1, 2, 3)).cardinality == count_inv_constant(3, 1)


class TestUParkingRecurrence:
    def test_matches_the_listings_on_every_small_boundary(self):
        boundaries = [bounds for n in range(1, 6)
                      for bounds in itertools.combinations_with_replacement(range(1, 8), n)]
        assert len(boundaries) == 791
        for bounds in boundaries:
            assert _u_parking(bounds) == len(enum_u_pf(bounds).members), bounds

    def test_staircase_of_200(self):
        # the classical parking functions of length 200: (n + 1)^(n - 1)
        assert _u_parking(range(1, 201)) == 201**199

    @pytest.mark.parametrize("z", [1, 2, 5])
    def test_shifted_staircase_is_the_constant_invariant_count(self, z):
        for n in (1, 2, 7, 40, 120):
            assert _u_parking(range(z, z + n)) == z * (z + n) ** (n - 1), (n, z)
