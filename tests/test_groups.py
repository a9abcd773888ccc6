"""Tests for abelian groups, group rings, characters, and the transform."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements_equal, embed_element, random_element
from pcring import (
    AbelianGroup,
    CycloNum,
    GroupRingElement,
    character_value,
    fourier,
    inverse_fourier,
    pairing,
    root_of_unity,
    trace_element,
)
from pcring import linalg


class TestGroupConstruction:
    def test_cyclic_of_order_three(self):
        g = AbelianGroup((3,))
        assert g.size == 3
        assert g.conductor == 3
        assert g.elements() == ((0,), (1,), (2,))

    def test_klein_group(self):
        g = AbelianGroup((2, 2))
        assert g.size == 4
        assert g.conductor == 2

    def test_mixed_orders(self):
        g = AbelianGroup((2, 3))
        assert g.size == 6
        assert g.conductor == 6

    def test_identity_enumerated_first(self):
        g = AbelianGroup((3, 2, 2))
        assert g.elements()[0] == g.identity == (0, 0, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AbelianGroup(())

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            AbelianGroup((2, 0))

    def test_degenerate_factors_collapse(self):
        g = AbelianGroup((1, 3))
        assert g.size == 3
        assert g.elements() == ((0, 0), (0, 1), (0, 2))


class TestElementOperations:
    def test_cyclic_addition(self):
        g = AbelianGroup((3,))
        assert g.mul((1,), (2,)) == (0,)

    def test_inverse(self):
        g = AbelianGroup((3,))
        assert g.inv((1,)) == (2,)

    def test_componentwise(self):
        g = AbelianGroup((2, 3))
        assert g.mul((1, 2), (1, 2)) == (0, 1)

    def test_out_of_range_rejected(self):
        g = AbelianGroup((2, 3))
        with pytest.raises(ValueError):
            g.element((2, 0))
        with pytest.raises(ValueError):
            g.element((0, -1))
        with pytest.raises(ValueError):
            g.element((0,))


class TestGroupRing:
    def test_unit_law(self):
        g = AbelianGroup((4,))
        x = GroupRingElement(g, {(0,): 3, (2,): -1, (3,): 7})
        one = GroupRingElement.delta(g, (0,))
        assert x * one == x
        assert one * x == x

    @pytest.mark.parametrize("k", [3, Fraction(-2, 5), root_of_unity(4, 1) + 2],
                             ids=["int", "Fraction", "CycloNum"])
    def test_scalar_multiple_on_either_side(self, k):
        g = AbelianGroup((4,))
        x = GroupRingElement(g, {(0,): 3, (2,): -1, (3,): root_of_unity(4, 3)})
        assert k * x == x * k
        assert (k * x).coefficient((3,)) == root_of_unity(4, 3) * k

    def test_square_in_order_two(self):
        g = AbelianGroup((2,))
        x = GroupRingElement(g, {(0,): 1, (1,): 1})
        assert x * x == GroupRingElement(g, {(0,): 2, (1,): 2})

    def test_trace_element_absorbs_translation(self):
        g = AbelianGroup((3,))
        tr = trace_element(g)
        assert tr * GroupRingElement.delta(g, (1,)) == tr
        for a in g.elements():
            assert GroupRingElement.delta(g, a) * tr == tr

    def test_mixed_groups_rejected(self):
        x = GroupRingElement.delta(AbelianGroup((2,)), (0,))
        y = GroupRingElement.delta(AbelianGroup((3,)), (0,))
        with pytest.raises(ValueError, match="mixed-group"):
            x * y

    def test_no_stored_zeros(self):
        g = AbelianGroup((2,))
        x = GroupRingElement(g, {(0,): 1, (1,): -1})
        assert len(x + (-x)) == 0
        assert len(x - x) == 0
        cyclotomic = embed_element(x)
        assert len(cyclotomic - cyclotomic) == 0
        y = GroupRingElement(g, {(1,): 0})
        assert y.is_zero()

    def test_bilinearity(self):
        g = AbelianGroup((2, 2))
        rng = random.Random(7)
        for _ in range(25):
            x = random_element(rng, g)
            y = random_element(rng, g)
            z = random_element(rng, g)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x - y == x + (-y)
        zero = GroupRingElement.zero(g)
        assert zero - x == -x and x - zero == x

    def test_convolution_is_commutative(self):
        rng = random.Random(37)
        for orders in ((4,), (2, 3), (2, 2, 2)):
            g = AbelianGroup(orders)
            for _ in range(20):
                x = random_element(rng, g)
                y = random_element(rng, g)
                assert x * y == y * x

    def test_augmentation_examples(self):
        g2 = AbelianGroup((2,))
        g3 = AbelianGroup((3,))
        assert GroupRingElement.delta(g2, (0,)).augmentation() == 1
        assert trace_element(g3).augmentation() == 3
        assert GroupRingElement(g2, {(0,): 1, (1,): -1}).augmentation() == 0

    def test_augmentation_is_multiplicative(self):
        g = AbelianGroup((6,))
        rng = random.Random(11)
        for _ in range(25):
            x = random_element(rng, g)
            y = random_element(rng, g)
            assert (x * y).augmentation() == x.augmentation() * y.augmentation()

    def test_trace_element_of_trivial_group(self):
        g = AbelianGroup((1,))
        assert trace_element(g) == GroupRingElement.delta(g, (0,))


@st.composite
def group_ring_triples(draw):
    orders = draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 3), (6,)]))
    g = AbelianGroup(orders)
    elems = g.elements()

    def one():
        coeffs = {}
        for a in draw(st.lists(st.sampled_from(elems), max_size=3)):
            coeffs[a] = coeffs.get(a, 0) + draw(st.integers(-4, 4))
        return GroupRingElement(g, coeffs)

    return g, one(), one(), one()


class TestRingAxioms:
    @settings(deadline=None, max_examples=60)
    @given(group_ring_triples())
    def test_associativity(self, data):
        _, x, y, z = data
        assert (x * y) * z == x * (y * z)

    @settings(deadline=None, max_examples=60)
    @given(group_ring_triples())
    def test_distributivity(self, data):
        _, x, y, z = data
        assert x * (y + z) == x * y + x * z

    @settings(deadline=None, max_examples=60)
    @given(group_ring_triples())
    def test_unit_and_commutativity(self, data):
        g, x, y, _ = data
        one = GroupRingElement.delta(g, g.identity)
        assert one * x == x
        assert x * y == y * x


class TestCharacters:
    def test_trivial_character_is_augmentation(self):
        g = AbelianGroup((2, 3))
        rng = random.Random(3)
        for _ in range(20):
            x = random_element(rng, g)
            assert character_value(g.identity, x) == x.augmentation()

    def test_trace_vanishes_at_nontrivial_character(self):
        g = AbelianGroup((3,))
        assert character_value((1,), trace_element(g)).is_zero()

    def test_order_two(self):
        g = AbelianGroup((2,))
        x = GroupRingElement(g, {(0,): 1, (1,): 1})
        assert character_value((1,), x).is_zero()

    def test_character_is_root_of_unity_power(self):
        g = AbelianGroup((4, 6))
        n = g.conductor
        for a in g.elements():
            for b in g.elements():
                expected = root_of_unity(n, g.pairing_exponent(a, b))
                assert pairing(g, a, b) == expected


class TestFourier:
    def test_dirac_identity_maps_to_ones(self):
        g = AbelianGroup((2, 2))
        values = fourier(GroupRingElement.delta(g, (0, 0)))
        assert all(v == 1 for v in values)

    def test_trace_spectrum(self):
        g = AbelianGroup((3,))
        assert fourier(trace_element(g)) == [
            CycloNum.rational(3, 3),
            CycloNum.zero(3),
            CycloNum.zero(3),
        ]

    def test_order_two_spectrum(self):
        g = AbelianGroup((2,))
        x = GroupRingElement(g, {(0,): 1, (1,): 1})
        assert fourier(x) == [CycloNum.rational(2, 2), CycloNum.zero(2)]

    def test_inverse_of_ones_is_identity_dirac(self):
        g = AbelianGroup((2, 3))
        ones = [CycloNum.one(g.conductor)] * g.size
        assert elements_equal(inverse_fourier(g, ones), GroupRingElement.delta(g, (0, 0)))

    def test_two_point_inverse(self):
        g = AbelianGroup((2,))
        half = Fraction(1, 2)
        got = inverse_fourier(g, [CycloNum.one(2), CycloNum.zero(2)])
        assert got == embed_element(GroupRingElement(g, {(0,): half, (1,): half}))
        got = inverse_fourier(g, [CycloNum.zero(2), CycloNum.one(2)])
        assert got == embed_element(GroupRingElement(g, {(0,): half, (1,): -half}))

    def test_wrong_length_rejected(self):
        g = AbelianGroup((3,))
        with pytest.raises(ValueError):
            inverse_fourier(g, [CycloNum.one(3)])

    def test_convolution_becomes_pointwise_product(self):
        rng = random.Random(23)
        for orders in ((2,), (4,), (2, 3), (2, 2, 2), (6,)):
            g = AbelianGroup(orders)
            for _ in range(8):
                x = random_element(rng, g)
                y = random_element(rng, g)
                fx, fy, fxy = fourier(x), fourier(y), fourier(x * y)
                assert fxy == [a * b for a, b in zip(fx, fy)]
                assert fourier(x + y) == [a + b for a, b in zip(fx, fy)]

    def test_round_trip(self):
        rng = random.Random(29)
        for orders in ((2,), (3,), (2, 3), (4, 2), (5,)):
            g = AbelianGroup(orders)
            n = g.conductor
            for _ in range(6):
                base = random_element(rng, g)
                x = embed_element(base, n) * root_of_unity(n, rng.randrange(n))
                assert inverse_fourier(g, fourier(x)) == x

    def test_round_trip_on_all_dirac_masses(self):
        # Invertibility of the character table, checked constructively.
        for orders in ((2,), (3,), (2, 2), (2, 3), (4,)):
            g = AbelianGroup(orders)
            for a in g.elements():
                d = GroupRingElement.delta(g, a)
                assert elements_equal(inverse_fourier(g, fourier(d)), d)

    def test_pairing_gram_matrix_has_full_rank(self):
        for orders in ((2,), (3,), (2, 2), (2, 3), (6,)):
            g = AbelianGroup(orders)
            gram = [[pairing(g, a, b) for b in g.elements()] for a in g.elements()]
            assert len(linalg.rref(gram)[1]) == g.size

    def test_matches_naive_complex_transform(self):
        # Float cross-check with a wide margin; the transform values here are
        # short sums of unit-modulus terms, far from the 1e-9 threshold.
        import cmath

        rng = random.Random(7)
        for orders in ((2, 6), (4, 3), (2, 2, 3), (5,), (12,)):
            g = AbelianGroup(orders)
            coeffs = {}
            for _ in range(5):
                a = g.elements()[rng.randrange(g.size)]
                coeffs[a] = coeffs.get(a, 0) + rng.randint(-4, 4)
            x = GroupRingElement(g, coeffs)
            for b, val in zip(g.elements(), fourier(x)):
                naive = sum(
                    c
                    * cmath.exp(
                        2j
                        * cmath.pi
                        * sum(ai * bi / ni for ai, bi, ni in zip(a, b, orders))
                    )
                    for a, c in x.items()
                )
                assert abs(val.approx() - naive) < 1e-9


def _random_coefficient(rng: random.Random, kind: str, order: int):
    big = rng.choice((2**63, -(2**63), 2**200, rng.randint(-5, 5) or 1))
    if kind == "int":
        return big
    if kind == "fraction":
        return Fraction(big, rng.randint(1, 7))
    value = CycloNum(order, [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                             for _ in range(order)])
    return value * big if value else CycloNum.rational(order, big)


class TestTransformKernel:
    """``fourier`` and ``inverse_fourier`` run on the exponent-histogram
    kernel; ``character_value`` is the direct per-character reference."""

    GROUPS = ((2,), (1,), (4,), (12,), (2, 6), (3, 5, 7), (2, 2, 2))

    @pytest.mark.parametrize("orders", GROUPS, ids=str)
    @pytest.mark.parametrize("kind", ["int", "fraction", "cyclo", "mixed"])
    def test_fourier_matches_character_values(self, orders, kind):
        rng = random.Random(f"{orders}:{kind}")
        g = AbelianGroup(orders)
        n = g.conductor
        elems = g.elements()
        for _ in range(3):
            coeffs = {}
            for a in rng.sample(elems, min(len(elems), rng.randint(1, 5))):
                k = rng.choice(("int", "fraction", "cyclo")) if kind == "mixed" else kind
                coeffs[a] = _random_coefficient(rng, k, n)
            x = GroupRingElement(g, coeffs)
            values = fourier(x)
            assert values == [character_value(b, x) for b in elems]
            assert inverse_fourier(g, values) == embed_element(x)

    def test_sums_past_int64_stay_exact(self):
        # Each coefficient fits in int64, their sum at the trivial character
        # does not.
        g = AbelianGroup((12,))
        x = GroupRingElement(g, {(0,): 2**62, (6,): 2**62, (3,): 2**63 - 1})
        values = fourier(x)
        assert values[0] == 2**64 - 1
        assert values == [character_value(b, x) for b in g.elements()]

    def test_zero_element(self):
        g = AbelianGroup((2, 6))
        values = fourier(GroupRingElement.zero(g))
        assert values == [CycloNum.zero(6)] * g.size
        assert inverse_fourier(g, values).is_zero()

    @pytest.mark.parametrize("orders", [(1,), (1, 6), (2, 2, 2), (4, 15), (3, 5, 7), (256,)],
                             ids=str)
    def test_pairing_exponents_match_pairing(self, orders):
        g = AbelianGroup(orders)
        exps = g.pairing_exponents()
        elems = g.elements()
        assert len(exps) == g.size
        for a, row in zip(elems, exps):
            assert row == tuple(g.pairing_exponent(a, b) for b in elems)

    def test_foreign_cyclotomic_order_rejected(self):
        g = AbelianGroup((4,))
        with pytest.raises(ValueError, match="order mismatch"):
            fourier(GroupRingElement.delta(g, (1,), root_of_unity(3, 1)))
        with pytest.raises(ValueError, match="order mismatch"):
            inverse_fourier(g, [root_of_unity(3, 1)] * 4)



class TestIndexKeys:
    """Elements are keyed by element index inside; tuples at the boundary."""

    @pytest.mark.parametrize("orders", [(1,), (1, 6), (2, 2, 2), (4, 15), (3, 5, 7), (256,)],
                             ids=str)
    def test_sum_table_matches_group_law(self, orders):
        g = AbelianGroup(orders)
        elems = g.elements()
        table = g.sum_table()
        assert len(table) == g.size
        for a, row in zip(elems, table):
            assert len(row) == g.size
            assert [elems[k] for k in row] == [g.mul(a, b) for b in elems]

    @pytest.mark.parametrize("padded, plain", [
        ((256, 1), (256,)),
        ((256,) + (1,) * 5, (256,)),
        ((1, 4, 1, 3, 1), (4, 3)),
    ], ids=str)
    def test_order_one_factors_leave_the_tables_unchanged(self, padded, plain):
        padded, plain = AbelianGroup(padded), AbelianGroup(plain)
        assert padded.sum_table() == plain.sum_table()
        assert padded.pairing_exponents() == plain.pairing_exponents()

    @pytest.mark.parametrize("k", [1, 2, 8000])
    def test_trivial_group_tables(self, k):
        g = AbelianGroup((1,) * k)
        assert g.sum_table() == g.pairing_exponents() == ((0,),)

    def test_listings_use_tuples_in_lexicographic_order(self):
        g = AbelianGroup((3, 4))
        rng = random.Random(11)
        elems = list(g.elements())
        rng.shuffle(elems)
        coeffs = {a: rng.randint(1, 9) for a in elems[:7]}
        x = GroupRingElement(g, coeffs)
        y = x * GroupRingElement(g, {(2, 3): 1, (1, 1): -2})
        for z in (x, y, trace_element(g)):
            keys = sorted(z.support())
            assert list(z.support()) == keys
            assert [a for a, _ in z.items()] == keys
            assert all(isinstance(a, tuple) and len(a) == 2 for a in keys)
            assert dict(z.items()) == {a: z.coefficient(a) for a in keys}
        assert dict(x.items()) == coeffs

    def test_out_of_range_tuple_keys_rejected(self):
        g = AbelianGroup((2, 3))
        for bad in ((2, 0), (0, 3), (0, -1), (0,), (0, 0, 0)):
            with pytest.raises(ValueError):
                GroupRingElement(g, {bad: 1})
            with pytest.raises(ValueError):
                GroupRingElement.delta(g, bad)

    def test_tuple_built_equals_product(self):
        g = AbelianGroup((2, 3))
        rng = random.Random(5)
        for _ in range(20):
            x, y = random_element(rng, g), random_element(rng, g)
            expected: dict = {}
            for a, ca in x.items():
                for b, cb in y.items():
                    key = g.mul(a, b)
                    expected[key] = expected.get(key, 0) + ca * cb
            assert x * y == GroupRingElement(g, expected)
            assert GroupRingElement(g, expected) == x * y


class TestSerialization:
    def test_terms_sorted_canonically(self):
        g = AbelianGroup((2, 2))
        x = GroupRingElement(g, {(1, 1): 4, (0, 1): -2, (0, 0): 1})
        doc = x.to_json()
        assert doc["group"] == [2, 2]
        assert [t["exp"] for t in doc["terms"]] == [[0, 0], [0, 1], [1, 1]]
        assert [t["coeff"] for t in doc["terms"]] == [1, -2, 4]

    def test_cyclotomic_coefficients_serialize_as_objects(self):
        g = AbelianGroup((3,))
        x = GroupRingElement.delta(g, (1,), root_of_unity(3, 1))
        doc = x.to_json()
        assert doc["terms"][0]["coeff"] == {
            "order": 3, "coeffs": [[0, 1], [1, 1]], "display_only": "-0.5+0.866025403784i"
        }
