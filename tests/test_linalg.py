"""Tests for the exact elimination helpers, the integer forms of cyclotomic
entries, the exact integer product and the modular rank certificate of the
tests' full-rank checker."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (PRIME_ATTEMPTS, certify_full_row_rank, image_mod_p, modular_primes,
                      rank_mod_p)
from pcring import CycloNum, root_of_unity
from pcring.cyclotomics import common_numerators
from pcring.linalg import (
    distinct_numerators,
    exact_dtype,
    exact_matmul,
    in_row_span,
    kernel_basis,
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


class TestDistinctNumerators:
    def test_numerators_rebuild_the_rows_over_one_denominator(self):
        z = root_of_unity(5, 1)
        rows = [[z * Fraction(1, 3) + Fraction(1, 2), 2], [Fraction(-1, 4), z * z]]
        nums, index = distinct_numerators(rows, 5)
        assert nums.shape == (4, 4) and index.shape == (2, 2)
        for row, slots in zip(rows, index):
            rebuilt = [sum(int(v) * z**k for k, v in enumerate(nums[j])) for j in slots]
            # 12 is the lcm of the denominators 3, 2 and 4 across both rows.
            assert rebuilt == [v * 12 for v in row]

    def test_each_distinct_value_is_read_once(self):
        z = root_of_unity(12, 1)
        third = z * Fraction(1, 3) - 1
        rows = [[third, 0, third, Fraction(1, 2)], [Fraction(1, 2), third, 0, 0]]
        nums, index = distinct_numerators(rows, 12)
        assert index.tolist() == [[0, 1, 0, 2], [2, 0, 1, 1]]
        assert nums.tolist() == [[-6, 2, 0, 0], [0, 0, 0, 0], [3, 0, 0, 0]]

    def test_no_rows(self):
        nums, index = distinct_numerators([], 12)
        assert nums.shape == (0, 4) and index.shape == (0, 0)
        p, w = next(modular_primes(12))
        image = image_mod_p(nums, p, w)[index]
        assert image.shape == (0, 0) and rank_mod_p(image, p) == 0

    def test_image_is_a_homomorphic_image(self):
        p, w = next(modular_primes(6))
        z = root_of_unity(6, 1)
        nums, index = distinct_numerators([[z, z * z]], 6)
        assert image_mod_p(nums, p, w)[index].tolist() == [[w % p, w * w % p]]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_image_matches_a_python_reference(self, dtype):
        # Negative and (object) past-int64 power-basis numerators.
        p, w = next(modular_primes(5))
        rng = np.random.default_rng(7)
        nums = rng.integers(-10**9, 10**9, size=(3, 4)).astype(dtype)
        if dtype is object:
            nums[1, 2] = -(2**80) - 7
        expected = [sum(int(nums[i, k]) * w**k for k in range(4)) % p for i in range(3)]
        assert image_mod_p(nums, p, w).tolist() == expected

    def test_repeated_entries_match_the_common_numerators(self):
        # Every row is scaled by the one denominator of the whole matrix,
        # 42 = lcm(3, 2, 7), also the rows that need less.
        z = root_of_unity(12, 1)
        third = z * Fraction(1, 3) - 1
        rows = [
            [third, third, Fraction(1, 2), 0, CycloNum.zero(12), 2],
            [third, Fraction(5, 7), 1, 1, Fraction(1, 2), z * z],
            [0, 0, 0, 0, 0, 0],
            [1, 2, 3, 4, 5, 6],
        ]
        nums, index = distinct_numerators(rows, 12)
        assert nums.dtype == object
        expected, common = common_numerators([v for row in rows for v in row], 12)
        assert common == 42
        assert nums[index].reshape(-1, 4).tolist() == expected
        assert nums[index[3]].tolist() == [[42 * v, 0, 0, 0] for v in range(1, 7)]

    def test_large_common_denominator_falls_back_to_python_integers(self):
        # Each entry's own numerators fit int64, but scaled to the common
        # denominator 2**40 (2**40 - 1) the integer rows do not.
        rows = [[Fraction(1, 2**40), Fraction(1, 2**40 - 1)], [1, 2]]
        nums, index = distinct_numerators(rows, 1)
        common = 2**40 * (2**40 - 1)
        assert nums.dtype == object
        assert nums[index[0], 0].tolist() == [2**40 - 1, 2**40]
        assert nums[index[1], 0].tolist() == [common, 2 * common]

    def test_huge_numerators_stay_exact(self):
        nums, index = distinct_numerators([[Fraction(2**70, 3), 1]], 1)
        assert nums.dtype == object
        assert nums[index[0], 0].tolist() == [2**70, 3]


# Largest entries on both sides of 2**24, 2**53 and 2**63.
_MAGNITUDES = [0, 1, 100, 2**11, 2**24 - 1, 2**24, 2**26, 2**53 - 1, 2**53, 2**63 - 1, 2**63,
               2**70]


def _array(shape, top, rng):
    values = [rng.randint(-top, top) for _ in range(int(np.prod(shape)))]
    dtype = np.int8 if top < 128 else np.int64 if top < 2**63 else object
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def _products(draw):
    """2-D integer operands of exact_matmul, (n, k) times (k, m) with up to
    9 rows (as many as the (n^2, n) view of an (n, n, n) table for n = 3),
    some inner columns of a zeroed, up to all of them."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, m, k = draw(st.integers(1, 9)), draw(st.integers(1, 3)), draw(st.integers(1, 70))
    a = _array((n, k), draw(st.sampled_from(_MAGNITUDES)), rng)
    b = _array((k, m), draw(st.sampled_from(_MAGNITUDES)), rng)
    a[:, np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = 0
    return a, b


def python_matmul(a: np.ndarray, b: np.ndarray) -> list:
    """a @ b on Python integers."""
    cols = b.T.tolist()
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.tolist()]


class TestExactMatmul:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_products())
    # A zero a over b in each tier: no row of b is read.
    @example((np.zeros((2, 40), np.int8), np.full((40, 3), 100, np.int8)))
    @example((np.zeros((4, 3), np.int64), np.full((3, 2), 2**40, np.int64)))
    @example((np.zeros((9, 3), object), np.full((3, 1), 2**70, object)))
    # 40 read indices, past one block of 32.  Counted as 32, the first would
    # take float32, which rounds its odd sum, and the second float64, where
    # 40 indices need Python integers.
    @example((np.ones((1, 40), np.int8), np.array([[2**19 - 1]] * 39 + [[2**19 - 2]])))
    @example((np.ones((1, 40), np.int8), np.full((40, 1), 2**48 - 1, np.int64)))
    # b's largest entry in the last of two blocks of read rows.
    @example((np.ones((1, 40), np.int8), np.array([[1]] * 39 + [[2**70]])))
    def test_equals_the_python_integer_product(self, operands):
        # The tier is bounded over a and the rows of b that a reads.
        a, b = operands
        out = exact_matmul(a, b)
        read = np.flatnonzero(a.any(axis=0))
        tops = [int(np.abs(x).max()) if x.size else 0 for x in (a, b[read])]
        tier = max(*tops, len(read) * tops[0] * tops[1])
        assert out.dtype == (object if tier >= 2**53 else np.int64)
        assert out.tolist() == python_matmul(a, b)

    def test_unread_rows_do_not_widen_the_tier(self):
        # a never reaches b's second row, so its 2**70 picks no tier.
        out = exact_matmul(np.array([[1, 0]]), np.array([[1], [2**70]]))
        assert out.dtype == np.int64 and out.tolist() == [[1]]

    def test_casts_a_block_at_a_time(self):
        # Cast whole, b alone is 64 MiB of float32.
        a = np.ones((2, 4096), np.int8)
        b = np.ones((4096, 4096), np.int8)
        tracemalloc.start()
        try:
            out = exact_matmul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (out == 4096).all() and out.shape == (2, 4096)

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
