"""Tests for the exact elimination helpers and the modular rank certificate."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import certify_full_row_rank
from pcring import CycloNum, root_of_unity
from pcring.cyclotomics import common_numerators
from pcring.linalg import (
    PRIME_ATTEMPTS,
    exact_dtype,
    exact_matmul,
    image_mod_p,
    in_row_span,
    integer_slices,
    kernel_basis,
    modular_primes,
    rank_mod_p,
    rref,
)


def F(*values):
    return [Fraction(v) for v in values]


class TestRref:
    def test_identity_like(self):
        reduced, pivots = rref([F(2, 0), F(0, 3)])
        assert pivots == [0, 1]
        assert reduced == [F(1, 0), F(0, 1)]

    def test_dependent_rows_collapse(self):
        reduced, pivots = rref([F(1, 2), F(2, 4), F(3, 6)])
        assert pivots == [1] or pivots == [0]
        assert len(reduced) == 1

    def test_rank(self):
        assert len(rref([F(1, 2, 3), F(2, 4, 6), F(0, 1, 1)])[1]) == 2
        assert len(rref([])[1]) == 0

    def test_works_over_cyclotomic_entries(self):
        z = root_of_unity(4, 1)
        one = CycloNum.one(4)
        rows = [[z, one], [one, z]]
        assert len(rref(rows)[1]) == 2
        rows = [[z, one], [z * z, z]]  # second row is z times the first
        assert len(rref(rows)[1]) == 1


class TestRowSpan:
    def test_membership(self):
        reduced, pivots = rref([F(1, 0, 1), F(0, 1, 1)])
        assert in_row_span(reduced, pivots, F(2, 3, 5))
        assert not in_row_span(reduced, pivots, F(0, 0, 1))

    def test_empty_span(self):
        reduced, pivots = rref([])
        assert in_row_span(reduced, pivots, [])


class TestKernel:
    def test_full_rank_kernel_is_trivial(self):
        assert kernel_basis([F(1, 0), F(0, 1)]) == []

    def test_one_dimensional_kernel(self):
        basis = kernel_basis([F(1, 1)])
        assert len(basis) == 1
        (vec,) = basis
        assert vec[0] + vec[1] == 0

    def test_kernel_vectors_annihilate(self):
        matrix = [F(1, 2, 3), F(4, 5, 6), F(7, 8, 9)]
        basis = kernel_basis(matrix)
        assert len(basis) == 1
        for row in matrix:
            assert sum(a * b for a, b in zip(row, basis[0])) == 0


class TestRankCertificate:
    def test_independent_rows(self):
        z = root_of_unity(12, 1)
        rows = [
            [z**i * Fraction(1, 3 + i) + j for j in range(4)] for i in range(3)
        ]
        assert certify_full_row_rank(rows, 12) == (len(rref(rows)[1]) == 3)

    def test_dependent_rows_detected(self):
        z = root_of_unity(6, 1)
        row = [z, z * z, CycloNum.one(6)]
        rows = [row, [v * Fraction(5, 7) for v in row]]
        assert not certify_full_row_rank(rows, 6)

    def test_wide_and_empty_shapes(self):
        assert certify_full_row_rank([], 5)
        one = CycloNum.one(5)
        assert not certify_full_row_rank([[one], [one]], 5)

    def test_rational_entries_accepted(self):
        rows = [[Fraction(1, 2), 0], [0, 3]]
        assert certify_full_row_rank(rows, 1)
        assert not certify_full_row_rank([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]], 1)


class TestModularRank:
    def test_matches_rational_rank(self):
        rng = random.Random(7)
        p, _ = next(modular_primes(1))
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            base = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
            matrix = [
                [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(cols)]
                for _ in range(rows)
            ]
            assert rank_mod_p(np.array(matrix), p) == len(
                rref([[Fraction(v) for v in row] for row in matrix])[1]
            )

    def test_rank_drops_only_at_dividing_primes(self):
        assert rank_mod_p(np.array([[1, 2], [3, 1]]), 5) == 1
        assert rank_mod_p(np.array([[1, 2], [3, 1]]), 7) == 2

    def test_primes_carry_roots_of_exact_order(self):
        # Every conductor the CLI accepts; the order of w is found by brute
        # force, as the first k >= 1 with w**k == 1.
        for order in range(1, 257):
            found = list(modular_primes(order))
            assert len(found) == PRIME_ATTEMPTS
            for p, w in found:
                assert p > 10**6 and (p - 1) % order == 0
                k, power = 1, w % p
                while power != 1 and k <= order:
                    power = power * w % p
                    k += 1
                assert k == order, (order, p, w)


class TestIntegerSlices:
    def test_slices_rebuild_the_scaled_rows(self):
        z = root_of_unity(5, 1)
        rows = [[z * Fraction(1, 3) + Fraction(1, 2), 2], [Fraction(-1, 4), z * z]]
        slices = integer_slices(rows, 5)
        assert slices.shape == (2, 4, 2)
        for row, piece in zip(rows, slices):
            rebuilt = [sum(int(piece[k][j]) * z**k for k in range(4)) for j in range(2)]
            scale = rebuilt[0] / row[0]
            assert scale.is_rational() and scale.as_fraction() > 0
            assert rebuilt == [scale * v for v in row]

    def test_image_is_a_homomorphic_image(self):
        p, w = next(modular_primes(6))
        z = root_of_unity(6, 1)
        image = image_mod_p(integer_slices([[z, z * z]], 6), p, w)
        assert image.tolist() == [[w % p, w * w % p]]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_image_matches_a_python_reference(self, dtype):
        # Negative and (object) past-int64 power-basis coefficients.
        p, w = next(modular_primes(5))
        rng = np.random.default_rng(7)
        slices = rng.integers(-10**9, 10**9, size=(3, 4, 5)).astype(dtype)
        if dtype is object:
            slices[1, 2, 3] = -(2**80) - 7
        expected = [[sum(int(slices[i, k, j]) * w**k for k in range(4)) % p for j in range(5)]
                    for i in range(3)]
        assert image_mod_p(slices, p, w).tolist() == expected

    def test_repeated_entries_match_the_per_row_numerators(self):
        # Equal values in different rows scale by different row denominators.
        z = root_of_unity(12, 1)
        third = z * Fraction(1, 3) - 1
        rows = [
            [third, third, Fraction(1, 2), 0, CycloNum.zero(12), 2],
            [third, Fraction(5, 7), 1, 1, Fraction(1, 2), z * z],
            [0, 0, 0, 0, 0, 0],
        ]
        slices = integer_slices(rows, 12)
        assert slices.dtype == np.int64
        for row, piece in zip(rows, slices):
            nums, _ = common_numerators(row, 12)
            assert piece.T.tolist() == nums

    def test_large_row_denominator_falls_back_to_python_integers(self):
        # Each numerator fits int64 once scaled, but the row's lcm does not.
        rows = [[Fraction(1, 2**40), Fraction(1, 2**40 - 1)], [1, 2]]
        slices = integer_slices(rows, 1)
        assert slices.dtype == object
        assert slices[0, 0].tolist() == [2**40 - 1, 2**40]
        assert slices[1, 0].tolist() == [1, 2]

    def test_huge_numerators_stay_exact(self):
        slices = integer_slices([[Fraction(2**70, 3), 1]], 1)
        assert slices.dtype == object
        assert slices[0, 0].tolist() == [2**70, 3]


class TestExactMatmul:
    def test_small_products_stay_int64(self):
        out = exact_matmul(np.array([[1, 2]]), np.array([[3], [4]]))
        assert out.dtype == np.int64 and out.tolist() == [[11]]

    def test_overflowing_products_use_python_ints(self):
        big = np.array([[2**40, 2**40]])
        out = exact_matmul(big, big.T)
        assert out.tolist() == [[2**81]]

    def test_bound_just_below_two_to_the_53_stays_int64(self):
        out = exact_matmul(np.array([[2**53 - 1]]), np.array([[1]]))
        assert out.dtype == np.int64 and out.tolist() == [[2**53 - 1]]
        # inner * max|a| * max|b| = 2**53 - 2; the odd sum 2**53 - 3 is exact.
        out = exact_matmul(np.array([[1, 1]]), np.array([[2**52 - 1], [2**52 - 2]]))
        assert out.dtype == np.int64 and out.tolist() == [[2**53 - 3]]

    def test_bound_just_below_two_to_the_24_stays_int64(self):
        out = exact_matmul(np.array([[2**24 - 1]]), np.array([[1]]))
        assert out.dtype == np.int64 and out.tolist() == [[2**24 - 1]]
        # inner * max|a| * max|b| = 3 * 1365 * 4097 = 2**24 - 1, the sum itself.
        out = exact_matmul(np.full((1, 3), 1365), np.full((3, 1), 4097))
        assert out.dtype == np.int64 and out.tolist() == [[2**24 - 1]]

    def test_bound_from_two_to_the_24_is_exact(self):
        out = exact_matmul(np.array([[2**24]]), np.array([[1]]))
        assert out.dtype == np.int64 and out.tolist() == [[2**24]]
        out = exact_matmul(np.full((1, 4), 2**11), np.full((4, 1), 2**11))
        assert out.dtype == np.int64 and out.tolist() == [[2**24]]
        # An odd sum above 2**24, which float32 cannot represent.
        assert int(np.float32(2**25 - 3)) != 2**25 - 3
        out = exact_matmul(np.array([[1, 1]]), np.array([[2**24 - 1], [2**24 - 2]]))
        assert out.dtype == np.int64 and out.tolist() == [[2**25 - 3]]

    @pytest.mark.parametrize("inner, a_max, b_max, dtype", [
        (1, 2**24 - 1, 1, np.float32),
        (3, 1365, 4097, np.float32),  # 2**24 - 1
        (1, 2**24, 1, np.float64),
        (1, 1, 2**24, np.float64),
        (4, 2**11, 2**11, np.float64),  # exactly 2**24
        (0, 2**24, 0, np.float64),
        (1, 2**53 - 1, 1, np.float64),
        (2, 2**26, 2**26, object),  # exactly 2**53
        (0, 0, 2**53, object),
    ])
    def test_exact_dtype_tiers(self, inner, a_max, b_max, dtype):
        assert exact_dtype(inner, a_max, b_max) == dtype

    @pytest.mark.parametrize("entry", [2**53, 2**53 + 1])
    def test_entries_from_two_to_the_53_use_python_ints(self, entry):
        out = exact_matmul(np.array([[entry, 1]]), np.array([[1], [1]]))
        assert out.dtype == object and out.tolist() == [[entry + 1]]
        out = exact_matmul(np.array([[1]]), np.array([[entry]], dtype=object))
        assert out.dtype == object and out.tolist() == [[entry]]
