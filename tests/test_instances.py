"""Tests for named instance generators."""

import cmath
import dataclasses
import json

import pytest

from pcring import (
    AbelianGroup,
    CanonicalElementError,
    GroupRingElement,
    InstanceDescriptor,
    cli,
    custom,
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

    def test_group_is_the_rings_group(self):
        inst = uq_sl2(5)
        assert inst.group is inst.ring.group

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


def test_descriptor_fields():
    # The group is read from the ring, never stored beside it.
    assert [f.name for f in dataclasses.fields(InstanceDescriptor)] == [
        "name", "ring", "expected_support_size"]


def dual_group(orders: str, capsys) -> dict:
    assert cli.main(["example", "dual-group", "--orders", orders]) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


class TestDualGroupAlgebra:
    """The semisimple case has no pair ring: the CLI reports it from the
    orders alone."""

    def test_semisimple_flag(self, capsys):
        doc = dual_group("2", capsys)
        assert doc["semisimple"] is True
        assert doc["instance"] == {"name": "dual-group(2)", "group": [2], "semisimple": True}

    def test_composite(self, capsys):
        doc = dual_group("2,3", capsys)
        assert doc["s"] == 6
        assert doc["K0p"] == "Z[Z2 x Z3]"

    def test_trivial_group(self, capsys):
        doc = dual_group("1", capsys)
        assert doc["s"] == 1
        assert doc["K0p"] == "Z"


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
