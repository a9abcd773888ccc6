"""Tests for named instance generators."""

import cmath

import pytest

from pcring import (
    AbelianGroup,
    CanonicalElementError,
    GroupRingElement,
    custom,
    dual_group_algebra,
    spectral_report,
    trace_element,
    uq_sl2,
)


class TestHalfQuantumGroup:
    def test_order_three(self):
        inst = uq_sl2(3)
        assert inst.group.orders == (3,)
        assert inst.ring.canonical == trace_element(inst.group)
        assert inst.expected_support_size == 1

    def test_order_two(self):
        inst = uq_sl2(2)
        assert inst.ring.canonical == GroupRingElement(inst.group, {(0,): 1, (1,): 1})
        assert inst.expected_support_size == 1
        assert not inst.semisimple

    @pytest.mark.parametrize("n", range(2, 13))
    def test_golden_values_hold(self, n):
        inst = uq_sl2(n)
        report = spectral_report(inst.ring)
        assert report.support_size == inst.expected_support_size == 1
        assert report.decomposition == f"C^2 x C[eps]^{n - 1}"

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            uq_sl2(1)
        with pytest.raises(ValueError):
            uq_sl2(0)


class TestDualGroupAlgebra:
    def test_semisimple_flag(self):
        inst = dual_group_algebra((2,))
        assert inst.semisimple
        assert inst.ring is None

    def test_composite(self):
        inst = dual_group_algebra((2, 3))
        assert inst.group.size == 6

    def test_trivial_group(self):
        inst = dual_group_algebra((1,))
        assert inst.group.size == 1


class TestCustom:
    def test_full_pipeline_instance(self):
        inst = custom((4,), {(0,): 1, (2,): 2, (3,): 1})
        report = spectral_report(inst.ring)
        # independent float check: the four character sums of this element
        # stay far from zero, so the transform may be confirmed numerically
        i = 1j
        sums = [1 + 2 * cmath.exp(cmath.pi * i * b) + cmath.exp(1.5 * cmath.pi * i * b) for b in range(4)]
        assert all(abs(v) > 1 for v in sums)
        assert report.support_size == 4
        assert report.decomposition == "C^8 x C[eps]^0"

    def test_semisimple_rejected(self):
        with pytest.raises(CanonicalElementError, match="semisimple input"):
            custom((2,), {(0,): 1})

    def test_klein_trace_element(self):
        inst = custom((2, 2), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        report = spectral_report(inst.ring)
        assert report.support_size == 1
        assert report.support == ((0, 0),)

    def test_descriptor_has_no_golden_values(self):
        inst = custom((2,), {(0,): 1, (1,): 1})
        assert inst.expected_support_size is None

    @pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (2, 3), (4, 3), (5,)])
    def test_trace_element_always_gives_support_one(self, orders):
        group = AbelianGroup(orders)
        coeffs = {a: 1 for a in group.elements()}
        inst = custom(orders, coeffs)
        report = spectral_report(inst.ring)
        assert report.support_size == 1
        assert report.support == (group.identity,)
        assert report.values[0] == group.size
