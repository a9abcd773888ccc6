"""Tests for the pair ring: validation, the multiplication law, dimension vectors."""

import dataclasses
import random

import pytest

from conftest import random_element, random_pair
from pcring import (
    AbelianGroup,
    CanonicalElementError,
    GroupRingElement,
    PairElement,
    ProjectiveClassRing,
    trace_element,
)


def sweedler_like_ring() -> ProjectiveClassRing:
    g = AbelianGroup((2,))
    return ProjectiveClassRing(GroupRingElement(g, {(0,): 1, (1,): 1}))


class TestValidation:
    def test_trace_element_instance(self):
        g = AbelianGroup((3,))
        ring = ProjectiveClassRing(trace_element(g))
        assert ring.canonical.augmentation() == 3

    def test_canonical_element_is_the_only_field(self):
        g = AbelianGroup((3,))
        c = trace_element(g)
        ring = ProjectiveClassRing(c)
        assert [f.name for f in dataclasses.fields(ProjectiveClassRing)] == ["canonical"]
        assert ring.canonical is c and ring.group is c.group

    def test_smallest_instance(self):
        ring = sweedler_like_ring()
        assert ring.group.size == 2

    def test_missing_trivial_factor(self):
        g = AbelianGroup((2,))
        with pytest.raises(CanonicalElementError, match="missing trivial factor") as info:
            ProjectiveClassRing(GroupRingElement.delta(g, (1,)))
        assert info.value.invariant == "missing trivial factor"

    def test_semisimple_input(self):
        g = AbelianGroup((2,))
        with pytest.raises(CanonicalElementError, match="semisimple input"):
            ProjectiveClassRing(GroupRingElement.delta(g, (0,)))

    def test_negative_multiplicity(self):
        g = AbelianGroup((2,))
        with pytest.raises(CanonicalElementError, match="invalid multiplicity"):
            ProjectiveClassRing(GroupRingElement(g, {(0,): 2, (1,): -1}))

    def test_non_integer_multiplicity(self):
        from fractions import Fraction

        g = AbelianGroup((2,))
        with pytest.raises(CanonicalElementError, match="invalid multiplicity"):
            ProjectiveClassRing(GroupRingElement(g, {(0,): Fraction(3, 2)}))


class TestMultiplicationLaw:
    def test_unit_law(self):
        ring = sweedler_like_ring()
        rng = random.Random(5)
        one = ring.one()
        for _ in range(20):
            x = random_pair(rng, ring.group)
            assert ring.mul(one, x) == x
            assert ring.mul(x, one) == x

    def test_projective_square_reproduces_canonical(self):
        ring = sweedler_like_ring()
        p = ring.projective_class((0,))
        square = ring.mul(p, p)
        assert square.s_part.is_zero()
        assert square.t_part == ring.canonical

    def test_simple_translates_projective(self):
        ring = sweedler_like_ring()
        prod = ring.mul(ring.simple_class((1,)), ring.projective_class((0,)))
        assert prod == ring.projective_class((1,))

    def test_simple_classes_follow_group_law(self):
        ring = sweedler_like_ring()
        g = ring.simple_class((1,))
        assert ring.mul(g, g) == ring.one()

    def test_group_mismatch_rejected(self):
        ring = sweedler_like_ring()
        other = AbelianGroup((3,))
        foreign = PairElement(
            GroupRingElement.delta(other, (0,)), GroupRingElement.zero(other)
        )
        with pytest.raises(ValueError, match="mixed-group"):
            ring.mul(ring.one(), foreign)


def sample_rings():
    g4 = AbelianGroup((4,))
    g22 = AbelianGroup((2, 2))
    return [
        sweedler_like_ring(),
        ProjectiveClassRing(trace_element(AbelianGroup((3,)))),
        ProjectiveClassRing(trace_element(g22)),
        ProjectiveClassRing(GroupRingElement(g4, {(0,): 1, (2,): 2, (3,): 1})),
    ]


class TestRingAxioms:
    @pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: str(r.group.orders))
    def test_associative_and_commutative(self, ring):
        rng = random.Random(13)
        for _ in range(100):
            x = random_pair(rng, ring.group)
            y = random_pair(rng, ring.group)
            z = random_pair(rng, ring.group)
            assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
            assert ring.mul(x, y) == ring.mul(y, x)

    @pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: str(r.group.orders))
    def test_distributive(self, ring):
        rng = random.Random(17)
        for _ in range(50):
            x = random_pair(rng, ring.group)
            y = random_pair(rng, ring.group)
            z = random_pair(rng, ring.group)
            assert ring.mul(x, y + z) == ring.mul(x, y) + ring.mul(x, z)

    @pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: str(r.group.orders))
    def test_projective_part_is_an_ideal(self, ring):
        rng = random.Random(19)
        zero = GroupRingElement.zero(ring.group)
        for _ in range(50):
            x = random_pair(rng, ring.group)
            ideal = PairElement(zero, random_element(rng, ring.group))
            assert ring.mul(x, ideal).s_part.is_zero()
            assert ring.mul(ideal, x).s_part.is_zero()

    @pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: str(r.group.orders))
    def test_canonical_element_is_central(self, ring):
        rng = random.Random(43)
        for _ in range(25):
            x = random_element(rng, ring.group)
            assert ring.canonical * x == x * ring.canonical

    @pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: str(r.group.orders))
    def test_basis_products_have_nonnegative_integer_coefficients(self, ring):
        elements = ring.group.elements()
        basis = [ring.simple_class(a) for a in elements]
        basis += [ring.projective_class(a) for a in elements]
        for x in basis:
            for y in basis:
                for coeff in ring.mul(x, y).coefficient_vector():
                    assert isinstance(coeff, int) and coeff >= 0


class TestDimensionVector:
    def test_simple_maps_to_dirac(self):
        ring = sweedler_like_ring()
        for a in ring.group.elements():
            assert ring.dimension_vector(ring.simple_class(a)) == GroupRingElement.delta(
                ring.group, a
            )

    def test_trivial_projective_maps_to_canonical(self):
        ring = sweedler_like_ring()
        assert ring.dimension_vector(ring.projective_class((0,))) == ring.canonical

    def test_projective_maps_to_translated_canonical(self):
        g = AbelianGroup((3,))
        ring = ProjectiveClassRing(trace_element(g))
        for a in g.elements():
            expected = GroupRingElement.delta(g, a) * ring.canonical
            assert ring.dimension_vector(ring.projective_class(a)) == expected

    @pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: str(r.group.orders))
    def test_ring_homomorphism(self, ring):
        rng = random.Random(31)
        for _ in range(100):
            x = random_pair(rng, ring.group)
            y = random_pair(rng, ring.group)
            assert ring.dimension_vector(ring.mul(x, y)) == ring.dimension_vector(
                x
            ) * ring.dimension_vector(y)
            assert ring.dimension_vector(x + y) == ring.dimension_vector(
                x
            ) + ring.dimension_vector(y)

    def test_surjective_onto_group_ring_basis(self):
        ring = sample_rings()[2]
        for a in ring.group.elements():
            image = ring.dimension_vector(ring.simple_class(a))
            assert image == GroupRingElement.delta(ring.group, a)
