"""Tests for the complexified analysis: support, idempotents, nilradical."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    certify_full_row_rank,
    elements_equal,
    embed_element,
    pairs_equal,
    random_pair,
)
from pcring import (
    AbelianGroup,
    CycloNum,
    GroupRingElement,
    PairElement,
    ProjectiveClassRing,
    SpectralReport,
    fourier,
    pairing,
    spectral_report,
    trace_element,
    uq_sl2,
)
from pcring import groups, linalg, spectral


def make_ring(orders, coeffs) -> ProjectiveClassRing:
    g = AbelianGroup(orders)
    return ProjectiveClassRing(GroupRingElement(g, coeffs))


def trace_ring(orders) -> ProjectiveClassRing:
    g = AbelianGroup(orders)
    return ProjectiveClassRing(trace_element(g))


AUDIT_RINGS = [
    make_ring((1,), {(0,): 2}),
    make_ring((2,), {(0,): 1, (1,): 1}),
    make_ring((2,), {(0,): 2}),
    make_ring((2,), {(0,): 2, (1,): 1}),
    trace_ring((3,)),
    trace_ring((2, 2)),
    make_ring((4,), {(0,): 1, (2,): 2, (3,): 1}),
    make_ring((2, 3), {(0, 0): 2, (1, 1): 3, (0, 2): 1}),
    make_ring((6,), {(0,): 1, (2,): 1, (3,): 2}),
]

IDS = [str(r.group.orders) + "/" + str(sorted(r.canonical.items())) for r in AUDIT_RINGS]


class TestSpectrum:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_trace_element_concentrates_at_trivial_character(self, n):
        report = spectral_report(trace_ring((n,)))
        assert report.support_size == 1
        assert report.support == ((0,),)
        assert report.values[0] == n

    def test_doubled_unit_has_full_support(self):
        report = spectral_report(make_ring((2,), {(0,): 2}))
        assert report.support_size == 2
        assert report.values == (CycloNum.rational(2, 2), CycloNum.rational(2, 2))

    def test_order_two_trace(self):
        report = spectral_report(make_ring((2,), {(0,): 1, (1,): 1}))
        assert report.support_size == 1
        assert report.values == (CycloNum.rational(2, 2), CycloNum.zero(2))

    def test_support_never_empty(self):
        for ring in AUDIT_RINGS:
            assert spectral_report(ring).support_size >= 1

    def test_support_matches_bilinear_pairing_set(self):
        # The labels pairing nontrivially with the canonical element under
        # the duality form are exactly the support, via self-duality.
        for ring in AUDIT_RINGS:
            g = ring.group
            by_pairing = set()
            for x in g.elements():
                total = CycloNum.zero(g.conductor)
                for a, coeff in ring.canonical.items():
                    total = total + pairing(g, x, a) * coeff
                if total:
                    by_pairing.add(x)
            assert by_pairing == set(spectral_report(ring).support)

    def test_support_is_galois_stable(self, corpus):
        # c has rational coefficients, so lambda_(kb) = sigma_k(lambda_b) for
        # every unit k mod N: the support is a union of (Z/N)^x orbits.
        violations = []
        for inst in corpus:
            group = inst.group
            n = group.conductor
            units = [k for k in range(n) if math.gcd(k, n) == 1]
            support = set(spectral_report(inst.ring).support)
            for b in support:
                for k in units:
                    kb = tuple(k * x % m for x, m in zip(b, group.orders))
                    if kb not in support:
                        violations.append(f"{inst.name}: {k} * {b} = {kb}")
        assert not violations


class TestDecomposition:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_half_quantum_shape(self, n):
        assert spectral_report(uq_sl2(n).ring).decomposition == f"C^2 x C[eps]^{n - 1}"

    def test_full_support_shape(self):
        ring = make_ring((2,), {(0,): 2})
        assert spectral_report(ring).decomposition == "C^4 x C[eps]^0"

    def test_trivial_group_shape(self):
        assert spectral_report(make_ring((1,), {(0,): 2})).decomposition == "C^2 x C[eps]^0"


class TestIdempotentSystem:
    def test_explicit_order_two_values(self):
        ring = make_ring((2,), {(0,): 1, (1,): 1})
        g = ring.group
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        plus = embed_element(GroupRingElement(g, {(0,): half, (1,): half}))
        minus = embed_element(GroupRingElement(g, {(0,): half, (1,): -half}))
        plus_quarter = embed_element(GroupRingElement(g, {(0,): quarter, (1,): quarter}))
        zero = GroupRingElement.zero(g)
        expected = [
            PairElement(plus, -plus_quarter),
            PairElement(zero, plus_quarter),
            PairElement(minus, zero),
        ]
        got = spectral_report(ring).idempotents
        assert len(got) == 3
        for e, f in zip(got, expected):
            assert pairs_equal(e, f)

    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_count_idempotency_orthogonality_completeness(self, ring):
        report = spectral_report(ring)
        idems = report.idempotents
        assert len(idems) == ring.group.size + report.support_size
        for e in idems:
            assert pairs_equal(ring.mul(e, e), e)
        for i, e in enumerate(idems):
            for f in idems[i + 1 :]:
                assert ring.mul(e, f).is_zero()
                assert ring.mul(f, e).is_zero()
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        assert pairs_equal(total, ring.one())

    def test_full_support_leaves_no_nilpotents(self):
        ring = make_ring((2,), {(0,): 2})
        assert len(spectral_report(ring).idempotents) == 4
        assert spectral_report(ring).nilpotents == ()


class TestNilradical:
    def test_single_vector_for_order_two(self):
        ring = make_ring((2,), {(0,): 1, (1,): 1})
        nils = spectral_report(ring).nilpotents
        assert len(nils) == 1
        half = Fraction(1, 2)
        expected = embed_element(
            GroupRingElement(ring.group, {(0,): half, (1,): -half})
        )
        assert nils[0].s_part.is_zero()
        assert nils[0].t_part == expected
        assert ring.mul(nils[0], nils[0]).is_zero()

    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_squares_and_mutual_products_vanish(self, ring):
        report = spectral_report(ring)
        nils = report.nilpotents
        assert len(nils) == ring.group.size - report.support_size
        for i, x in enumerate(nils):
            for y in nils[i:]:
                assert ring.mul(x, y).is_zero()

    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_orthogonal_to_every_support_element(self, ring):
        # Under the duality pairing, sum_a beta(K^x, K^a) t_a must vanish for
        # every x in the support.
        from pcring import character_value

        report = spectral_report(ring)
        for nil in report.nilpotents:
            for x in report.support:
                assert character_value(x, nil.t_part).is_zero()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_half_quantum_span_is_augmentation_ideal(self, n):
        ring = uq_sl2(n).ring
        g = ring.group
        order = g.conductor
        nil_rows = [
            [embed_coeff(nil.t_part, a, order) for a in g.elements()]
            for nil in spectral_report(ring).nilpotents
        ]
        aug_rows = [
            [embed_coeff(basis_vec(g, j), a, order) for a in g.elements()]
            for j in range(1, n)
        ]
        assert len(nil_rows) == len(aug_rows) == n - 1
        reduced_nil, pivots_nil = linalg.rref(nil_rows)
        for row in aug_rows:
            assert linalg.in_row_span(reduced_nil, pivots_nil, row)
        reduced_aug, pivots_aug = linalg.rref(aug_rows)
        for row in nil_rows:
            assert linalg.in_row_span(reduced_aug, pivots_aug, row)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_projective_differences_square_to_zero(self, n):
        ring = uq_sl2(n).ring
        for a in ring.group.elements():
            for b in ring.group.elements():
                diff = ring.projective_class(a) - ring.projective_class(b)
                assert ring.mul(diff, diff).is_zero()

    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_products_with_ring_elements_stay_in_the_radical(self, ring):
        nils = spectral_report(ring).nilpotents
        if not nils:
            return
        g = ring.group
        order = g.conductor
        rows = [
            [embed_entry(v, order) for v in nil.coefficient_vector()] for nil in nils
        ]
        reduced, pivots = linalg.rref(rows)
        rng = random.Random(41)
        for _ in range(10):
            x = random_pair(rng, g)
            for nil in nils:
                product = ring.mul(x, nil)
                vec = [embed_entry(v, order) for v in product.coefficient_vector()]
                assert linalg.in_row_span(reduced, pivots, vec)


def embed_coeff(elem: GroupRingElement, a, order: int) -> CycloNum:
    v = elem.coefficient(a)
    return v if isinstance(v, CycloNum) else CycloNum.rational(order, v)


def embed_entry(v, order: int) -> CycloNum:
    return v if isinstance(v, CycloNum) else CycloNum.rational(order, v)


def basis_vec(g: AbelianGroup, j: int) -> GroupRingElement:
    # j-th augmentation ideal basis vector delta_j - delta_identity
    target = g.elements()[j]
    return GroupRingElement(g, {target: 1, g.identity: -1})


class TestNormalization:
    def test_normalized_element_transforms_to_indicator(self):
        ring = trace_ring((2,))  # canonical element transforms to (2, 0)
        report = spectral_report(ring)
        assert fourier(report.element) == [
            CycloNum.one(2),
            CycloNum.zero(2),
        ]

    def test_order_two_unit_certificate(self):
        ring = trace_ring((2,))
        report = spectral_report(ring)
        half = Fraction(1, 2)
        assert report.element == embed_element(
            GroupRingElement(ring.group, {(0,): half, (1,): half})
        )
        assert report.unit_values == (CycloNum.rational(2, 2), CycloNum.one(2))

    def test_order_three_trace(self):
        ring = trace_ring((3,))
        third = Fraction(1, 3)
        expected = embed_element(
            GroupRingElement(ring.group, {(0,): third, (1,): third, (2,): third})
        )
        assert spectral_report(ring).element == expected

    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_unit_times_normalized_recovers_canonical(self, ring):
        report = spectral_report(ring)
        assert elements_equal(report.unit * report.element, ring.canonical)
        # the same identity pointwise in transform coordinates
        lhs = fourier(ring.canonical)
        unit_values = fourier(report.unit)
        rhs = [u * v for u, v in zip(unit_values, fourier(report.element))]
        assert lhs == rhs
        assert tuple(unit_values) == report.unit_values

    def test_unit_is_canonical_plus_identity_minus_element(self, corpus):
        # lambda on the support and 1 off it: the transform of
        # c + delta_identity - element, with every coefficient cyclotomic.
        for inst in corpus:
            g = inst.group
            report = spectral_report(inst.ring)
            one = GroupRingElement.delta(g, g.identity, CycloNum.one(g.conductor))
            expected = embed_element(inst.ring.canonical) + one - report.element
            assert report.unit == expected, inst.name
            assert all(isinstance(v, CycloNum) for _, v in report.unit.items()), inst.name
            assert tuple(fourier(report.unit)) == report.unit_values, inst.name
            assert report.unit_values == tuple(
                lam if lam else CycloNum.one(g.conductor) for lam in report.values)

    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_unit_is_invertible_and_support_is_preserved(self, ring):
        report = spectral_report(ring)
        g = ring.group
        assert all(v for v in fourier(report.unit))
        normalized_values = fourier(report.element)
        support = tuple(b for b, v in zip(g.elements(), normalized_values) if v)
        assert support == report.support
        one = CycloNum.one(g.conductor)
        assert all(v == one for b, v in zip(g.elements(), normalized_values) if v)


class TestRecord:
    def test_stores_the_ring_and_the_transform_values_only(self):
        assert [f.name for f in dataclasses.fields(SpectralReport)] == ["ring", "values"]

    def test_one_transform_each_way_through_the_module_names(self, monkeypatch):
        # Tracing wraps spectral.fourier by name, so the report must look
        # both transforms up there.
        calls = []

        def counted(name):
            original = getattr(spectral, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("fourier", "inverse_fourier"):
            monkeypatch.setattr(spectral, name, counted(name))
        ring = make_ring((2, 3), {(0, 0): 2, (1, 1): 3, (0, 2): 1})
        report = spectral_report(ring)
        assert calls == ["fourier"]
        assert report.values == tuple(fourier(ring.canonical))
        report.to_json()
        report.to_json()
        assert calls == ["fourier", "inverse_fourier"]


class TestBasisAudit:
    @pytest.mark.parametrize("ring", AUDIT_RINGS, ids=IDS)
    def test_idempotents_and_nilpotents_form_a_basis(self, ring):
        report = spectral_report(ring)
        basis = report.idempotents + report.nilpotents
        assert len(basis) == 2 * ring.group.size
        assert certify_full_row_rank(
            [e.coefficient_vector() for e in basis], ring.group.conductor
        )

    def test_idempotents_and_nilpotents_are_built_on_first_access(self, monkeypatch):
        calls = []
        original = CycloNum.inverse

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(CycloNum, "inverse", counted)
        ring = make_ring((2, 3), {(0, 0): 2, (1, 1): 3, (0, 2): 1})
        report = spectral_report(ring)
        report.to_json(include_idempotents=False, include_nilradical=False)
        assert calls == []
        assert "_pullbacks" not in vars(report)
        assert len(report.nilpotents) == ring.group.size - report.support_size
        rows = vars(report)["_pullbacks"]
        assert calls == []
        assert len(report.idempotents) == ring.group.size + report.support_size
        assert vars(report)["_pullbacks"] is rows
        # One inversion per nonvanishing character.
        assert len(calls) == report.support_size
        assert report.idempotents is report.idempotents

    @pytest.mark.parametrize("ring", [
        uq_sl2(12).ring,
        make_ring((5, 7), {(0, 0): 3, (1, 2): 2, (2, 6): 1, (4, 3): 1}),
    ], ids=["uq-sl2-12", "split-5x7"])
    def test_idempotents_and_nilpotents_run_no_group_transform(self, ring, monkeypatch):
        # The root multiples behind every pullback come from one
        # shift-and-fold pass each, not from the transform kernel.
        report = spectral_report(ring)
        calls = []
        original = groups.exponent_transform

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(groups, "exponent_transform", counted)
        assert len(report.idempotents) + len(report.nilpotents) == 2 * ring.group.size
        assert calls == []

    def test_equal_values_render_to_one_shared_dict(self):
        # uq-sl2(4) has the transform (4, 0, 0, 0), with each 0 its own object.
        report = spectral_report(uq_sl2(4).ring)
        values = report.values
        assert values[1] == values[2] and values[1] is not values[2]
        doc = report.to_json()
        assert doc["fourier_c"][1] is doc["fourier_c"][2]
        assert doc["fourier_c"][1] == values[1].to_json()
        # The unit's transform holds the value 4 again, on the support.
        assert doc["normalized_c"]["unit_fourier"][0] is doc["fourier_c"][0]

    def test_reports_share_no_rendered_values(self):
        report = spectral_report(trace_ring((2,)))
        first, second = report.to_json(), report.to_json()
        assert first == second
        assert first["fourier_c"][0] is not second["fourier_c"][0]
        assert (first["idempotents"][0]["s"]["terms"][0]["coeff"]
                is not second["idempotents"][0]["s"]["terms"][0]["coeff"])

    def test_report_json_shape(self):
        ring = trace_ring((2,))
        doc = spectral_report(ring).to_json()
        assert doc["s"] == 2 and doc["r"] == 1
        assert doc["decomposition"] == "C^2 x C[eps]^1"
        assert doc["support_F"] == [[0]]
        assert [v["display_only"] for v in doc["fourier_c"]] == ["2.0", "0.0"]
        assert doc["idempotents"][0]["s"]["terms"][0]["coeff"]["display_only"] == "0.5"
        assert len(doc["idempotents"]) == 3
        assert len(doc["nilradical"]) == 1
        assert set(doc["normalized_c"]) == {"element", "unit", "unit_fourier"}
