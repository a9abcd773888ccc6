"""Tests for exact cyclotomic arithmetic."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pcring import CycloNum, cyclotomic_polynomial, euler_phi, root_of_unity
from pcring.cyclotomics import _fold, _power_residues


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


class TestCyclotomicPolynomial:
    def test_first_is_x_minus_one(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_second_is_x_plus_one(self):
        assert cyclotomic_polynomial(2) == (1, 1)

    def test_sixth(self):
        # x^6 - 1 divided by (x-1)(x+1)(x^2+x+1) leaves x^2 - x + 1
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_degree_is_totient(self):
        for n in range(1, 61):
            assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)

    def test_divisor_product_recovers_x_n_minus_one(self):
        for n in range(1, 61):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_against_sympy(self):
        x = sympy.symbols("x")
        for n in range(1, 61):
            expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
            assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


class TestRootOfUnity:
    def test_fourth_root_squared(self):
        assert root_of_unity(4, 2) == -1

    def test_trivial_exponent(self):
        assert root_of_unity(3, 0) == 1

    def test_cube_roots_sum_to_minus_one(self):
        assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1

    def test_exponent_wraps_modulo_order(self):
        assert root_of_unity(5, 7) == root_of_unity(5, 2)
        assert root_of_unity(5, -1) == root_of_unity(5, 4)

    def test_never_zero(self):
        for n in (1, 2, 3, 4, 6, 8, 12, 30):
            for k in range(n):
                assert not root_of_unity(n, k).is_zero()

    def test_order(self):
        z = root_of_unity(12, 1)
        assert z**12 == 1
        assert all(z**k != 1 for k in range(1, 12))


class TestFieldOperations:
    def test_i_squared(self):
        z = root_of_unity(4, 1)
        assert z * z == -1

    def test_scalar_inverse(self):
        two = CycloNum.rational(6, 2)
        assert two.inverse() == Fraction(1, 2)

    def test_root_inverse(self):
        z = root_of_unity(3, 1)
        inv = z.inverse()
        assert inv == root_of_unity(3, 2)
        assert z * inv == 1

    def test_division_by_zero_message(self):
        with pytest.raises(ZeroDivisionError, match="division by zero in cyclotomic field"):
            CycloNum.zero(5).inverse()

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            root_of_unity(3, 1) + root_of_unity(4, 1)

    def test_rational_coercion(self):
        z = root_of_unity(8, 1)
        assert (z + 1) - 1 == z
        assert z * Fraction(3, 2) == Fraction(3, 2) * z
        assert 1 / CycloNum.rational(8, 2) == Fraction(1, 2)
        a = z * Fraction(2, 3) + root_of_unity(8, 3)
        for q in (3, -2, 0, Fraction(5, 4), Fraction(-1, 6)):
            assert a - q == a + (-q)
            assert q - a == q + (-a)
            assert isinstance(q - a, CycloNum)

    def test_high_degree_input_is_reduced(self):
        # 1 + x + x^2 is zero modulo the third cyclotomic polynomial
        assert CycloNum(3, [1, 1, 1]).is_zero()
        for order in (1, 2, 12, 30):
            coeffs = [Fraction((-1) ** k * (k + 1), k % 4 + 1) for k in range(2 * order + 3)]
            expected = CycloNum.zero(order)
            for k, c in enumerate(coeffs):
                expected = expected + root_of_unity(order, k) * c
            assert CycloNum(order, coeffs) == expected

    @pytest.mark.parametrize("order", [105, 128])
    def test_inverse_at_large_degree(self, order):
        # Z/105 has a non-cyclic unit group; phi(128) = 64.
        a = (root_of_unity(order, 1) * 3 - root_of_unity(order, 7) * Fraction(2, 5)
             + root_of_unity(order, order - 2) + 4)
        assert a * a.inverse() == 1
        for k in (1, 2, 35, order - 1):
            assert root_of_unity(order, k).inverse() == root_of_unity(order, -k)

    def test_inverse_at_phi_250(self):
        a = root_of_unity(251, 1) * 2 - root_of_unity(251, 100) + Fraction(1, 3)
        assert a * a.inverse() == 1
        assert root_of_unity(251, 3).inverse() == root_of_unity(251, -3)


class TestFold:
    @pytest.mark.parametrize("order", [*range(1, 61), 64, 105, 128, 256])
    def test_sparse_fold_matches_dense_reference(self, order):
        # Every power past phi is read from the full residue row of zeta^k.
        residues = _power_residues(order)
        phi = euler_phi(order)
        rng = random.Random(order)
        for length in (0, phi, 2 * phi - 1, order + phi - 1, 2 * order + 3):
            poly = [rng.choice((0, 0, 1, -3, 2**70 + 1, -(2**64))) for _ in range(length)]
            expected = list(poly[:phi]) + [0] * (phi - min(length, phi))
            for k in range(phi, length):
                for i in range(phi):
                    expected[i] += poly[k] * residues[k % order][i]
            assert _fold(order, poly) == expected


class TestRootMultiples:
    @pytest.mark.parametrize("order", [1, 2, 12, 105, 128, 256])
    def test_matches_products_with_roots(self, order):
        phi = euler_phi(order)
        values = [
            CycloNum.zero(order),
            CycloNum.rational(order, Fraction(-7, 9)),
            # Numerators past 2**63 over a non-unit denominator.
            CycloNum(order, [Fraction((-1) ** i * (2**70 + 13 * i), 3 + i % 5)
                             for i in range(phi)]),
            (root_of_unity(order, 1) * 3 + Fraction(2, 5)).inverse(),
        ]
        for v in values:
            assert v.root_multiples() == [v * root_of_unity(order, k) for k in range(order)]


class TestZeroTest:
    def test_zero(self):
        assert CycloNum.zero(7).is_zero()

    def test_vanishing_root_sum(self):
        total = CycloNum.rational(3, 1) + root_of_unity(3, 1) + root_of_unity(3, 2)
        assert total.is_zero()

    def test_basis_root_nonzero(self):
        assert not root_of_unity(5, 1).is_zero()

    def test_difference_of_equal_values(self):
        a = root_of_unity(12, 5) * Fraction(7, 3) + 2
        assert (a - a).is_zero()


@st.composite
def cyclo_values(draw, order: int):
    phi = euler_phi(order)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=0,
            max_size=phi,
        )
    )
    return CycloNum(order, coeffs)


@st.composite
def cyclo_triples(draw):
    order = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 24, 30]))
    return (
        draw(cyclo_values(order)),
        draw(cyclo_values(order)),
        draw(cyclo_values(order)),
    )


class TestFieldAxioms:
    @settings(deadline=None)
    @given(cyclo_triples())
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @settings(deadline=None)
    @given(cyclo_triples())
    def test_distributivity(self, triple):
        a, b, c = triple
        assert a * (b + c) == a * b + a * c

    @settings(deadline=None)
    @given(cyclo_triples())
    def test_commutativity(self, triple):
        a, b, _ = triple
        assert a * b == b * a
        assert a + b == b + a

    @settings(deadline=None)
    @given(cyclo_triples())
    def test_multiplicative_inverse(self, triple):
        a, _, _ = triple
        if not a.is_zero():
            assert a * a.inverse() == 1

    @settings(deadline=None)
    @given(cyclo_triples())
    def test_subtraction_cancels(self, triple):
        a, b, _ = triple
        assert (a - b) + b == a
        assert (a - a).is_zero()
        assert a - b == a + (-b)


class TestCanonicalForm:
    def test_coeff_vector_length(self):
        for n in (1, 2, 3, 8, 12, 30):
            assert len(CycloNum.rational(n, 5).coeffs) == euler_phi(n)

    def test_equality_is_componentwise(self):
        a = CycloNum(12, [Fraction(1, 2), 0, 3])
        b = CycloNum(12, [Fraction(2, 4), 0, 3])
        assert a == b
        assert hash(a) == hash(b)

    def test_rational_values_hash_like_the_numbers_they_equal(self):
        assert CycloNum.rational(5, 1) == 1
        assert 1 in {CycloNum.rational(5, 1)}
        assert {1: "x"}.get(CycloNum.rational(5, 1)) == "x"
        assert CycloNum.rational(12, Fraction(-3, 4)) in {Fraction(-3, 4)}

    def test_reduced_fractions_positive_denominator(self):
        a = CycloNum(6, [Fraction(2, -4)])
        (f,) = a.coeffs[:1]
        assert f == Fraction(-1, 2)
        assert f.denominator == 2


class TestSerialization:
    def test_json_shape(self):
        a = root_of_unity(4, 1) * Fraction(1, 2) + 1
        doc = a.to_json()
        assert doc == {"order": 4, "coeffs": [[1, 1], [1, 2]], "display_only": "1.0+0.5i"}

    def test_coeffs_in_lowest_terms(self):
        # Zero, negative and denominator-1 coordinates all read as Fraction(n, den).
        values = [
            CycloNum(12, [0, Fraction(3, 4), 0, Fraction(-6, 8)]),
            CycloNum(7, [Fraction(5, 6), 0, 0, Fraction(1, 3), 0, -2]),
            root_of_unity(30, 7) * Fraction(-5, 6) + Fraction(2, 3),
            CycloNum.zero(9),
            CycloNum.rational(5, Fraction(-4, 10)),
            CycloNum(9, [0, -4, 7, 0, 0, 1]),
            root_of_unity(12, 5),
            CycloNum.rational(7, -3),
        ]
        for a in values:
            nums, den = a.integer_coeffs()
            expected = [[f.numerator, f.denominator] for f in (Fraction(n, den) for n in nums)]
            assert a.to_json()["coeffs"] == expected
            assert any(n == 0 for n in nums)
        assert any(n < 0 for a in values for n in a.integer_coeffs()[0])
        assert sum(a.integer_coeffs()[1] == 1 for a in values) >= 3

    def test_round_trip(self):
        a = root_of_unity(12, 7) * Fraction(-5, 6) + Fraction(2, 3)
        assert CycloNum.from_json(a.to_json()) == a

    def test_display_tag(self):
        doc = CycloNum.rational(3, 2).to_json()
        assert doc["display_only"] == "2.0"
        doc = root_of_unity(4, 1).to_json()
        assert doc["display_only"] == "0.0+1.0i"

    def test_display_beyond_float_range(self):
        # Parts past the float range render as inf; the exact coeffs stay.
        a = CycloNum(4, [2**1100, 3])
        doc = a.to_json()
        assert doc["display_only"] == "inf+3.0i"
        assert doc["coeffs"] == [[2**1100, 1], [3, 1]]
        assert (-a).to_json()["display_only"] == "-inf-3.0i"
        assert CycloNum(4, [Fraction(2**1100, 2**1099 + 1)]).approx() == 2.0

    def test_approx_matches_unit_circle(self):
        z = root_of_unity(5, 1).approx()
        assert abs(abs(z) - 1) < 1e-12
