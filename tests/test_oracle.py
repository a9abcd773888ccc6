"""Tests for the structure-constants oracle and its cross-checks."""

import random

import numpy as np
import pytest

from pcring import oracle
from pcring import (
    AbelianGroup,
    GroupRingElement,
    ProjectiveClassRing,
    StructureTable,
    build_table,
    certify_radical,
    matches_pair_ring,
    radical_matches_spectral,
    spectral_report,
    trace_element,
)


def make_ring(orders, coeffs) -> ProjectiveClassRing:
    g = AbelianGroup(orders)
    return ProjectiveClassRing(g, GroupRingElement(g, coeffs))


def trace_ring(n) -> ProjectiveClassRing:
    g = AbelianGroup((n,))
    return ProjectiveClassRing(g, trace_element(g))


RINGS = [
    make_ring((2,), {(0,): 1, (1,): 1}),
    make_ring((2,), {(0,): 2}),
    trace_ring(3),
    make_ring((4,), {(0,): 1, (2,): 2, (3,): 1}),
    make_ring((2, 3), {(0, 0): 2, (1, 1): 3, (0, 2): 1}),
]

IDS = [str(r.group.orders) + "/" + str(sorted(r.canonical.items())) for r in RINGS]

# Multiplicities past int64: the tables hold Python integers (object dtype).
HUGE_RINGS = [
    make_ring((4,), {(0,): 2**63, (2,): 1}),
    make_ring((2, 3), {(0, 0): 1, (1, 2): 2**63 + 5, (0, 1): 3}),
]


def reference_table(ring: ProjectiveClassRing) -> np.ndarray:
    """The structure constants by a loop over basis pairs with ``group.mul``,
    in int64 (object past int64), whatever dtype the table stores them in."""
    group = ring.group
    s = group.size
    d = 2 * s
    elements = group.elements()
    idx = {a: i for i, a in enumerate(elements)}
    canonical = list(ring.canonical.items())
    fits = all(cu < 2**63 for _, cu in canonical)
    constants = np.zeros((d, d, d), dtype=np.int64 if fits else object)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            ab = group.mul(a, b)
            k = idx[ab]
            constants[i, j, k] = 1
            constants[i, s + j, s + k] = 1
            constants[s + i, j, s + k] = 1
            for u, cu in canonical:
                constants[s + i, s + j, s + idx[group.mul(ab, u)]] += cu
    return constants


class TestBuildTable:
    def test_projective_square_order_two(self):
        ring = make_ring((2,), {(0,): 1, (1,): 1})
        table = build_table(ring)
        # indices: 0,1 simples; 2,3 projectives
        assert list(table.constants[2, 2]) == [0, 0, 1, 1]

    def test_unit_row_and_column(self):
        for ring in RINGS:
            table = build_table(ring)
            d = table.dim
            for j in range(d):
                expected = [1 if k == j else 0 for k in range(d)]
                assert list(table.constants[0, j]) == expected
                assert list(table.constants[j, 0]) == expected

    def test_trace_absorbs_projective_products(self):
        table = build_table(trace_ring(3))
        # [P_K] * [P_K^2]: indices 3 + 1 and 3 + 2
        assert list(table.constants[4, 5]) == [0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("ring", RINGS + HUGE_RINGS,
                             ids=IDS + ["huge-Z4", "huge-Z2xZ3"])
    def test_matches_reference_loop(self, ring):
        constants = build_table(ring).constants
        expected = reference_table(ring)
        # Multiplicities of RINGS are at most 3; HUGE_RINGS pass int64.
        assert constants.dtype == (object if ring in HUGE_RINGS else np.int8)
        assert np.array_equal(constants, expected)

    def test_order_one_factors_between_others(self):
        ring = make_ring((1, 2, 1, 3), {(0, 0, 0, 0): 1, (0, 1, 0, 2): 2, (0, 0, 0, 1): 1})
        assert np.array_equal(build_table(ring).constants, reference_table(ring))

    @pytest.mark.parametrize("top, dtype", [
        (127, np.int8), (128, np.int16),
        (2**15 - 1, np.int16), (2**15, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64),
        (2**63 - 1, np.int64), (2**63, object),
    ])
    def test_smallest_dtype_that_holds_the_largest_multiplicity(self, top, dtype):
        ring = make_ring((2, 2), {(0, 0): 1, (1, 0): 2, (1, 1): top})
        constants = build_table(ring).constants
        assert constants.dtype == dtype
        assert np.array_equal(constants, reference_table(ring))
        assert constants.max() == top


class TestAgreementWithPairRing:
    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_all_basis_products_agree(self, ring):
        assert matches_pair_ring(build_table(ring), ring)

    def test_perturbed_constant_detected(self):
        ring = trace_ring(3)
        table = build_table(ring)
        broken = StructureTable(ring.group, table.constants.copy())
        broken.constants[1, 2, 0] += 1
        assert not matches_pair_ring(broken, ring)

    @pytest.mark.parametrize("ring", [RINGS[3], RINGS[4]] + HUGE_RINGS,
                             ids=["Z4", "Z2xZ3", "huge-Z4", "huge-Z2xZ3"])
    @pytest.mark.parametrize("block", ["SS", "SP", "PS", "PP"])
    @pytest.mark.parametrize("kind", ["missing", "extra", "changed"])
    def test_every_perturbation_detected(self, ring, block, kind):
        table = build_table(ring)
        assert matches_pair_ring(table, ring)
        s = ring.group.size
        i = 1 + (s if block[0] == "P" else 0)
        j = s - 1 + (s if block[1] == "P" else 0)
        constants = table.constants.copy()
        row = constants[i, j]
        if kind == "extra":
            row[np.flatnonzero(row == 0)[0]] = 1
        else:
            k = np.flatnonzero(row)[-1]
            row[k] = 0 if kind == "missing" else row[k] + 1
        assert not matches_pair_ring(StructureTable(ring.group, constants), ring)

    def test_table_of_another_group_rejected(self):
        ring = make_ring((6,), {(0,): 2, (3,): 1})
        other = make_ring((2, 3), {(0, 0): 2, (1, 0): 1})
        assert matches_pair_ring(build_table(ring), ring)
        assert not matches_pair_ring(build_table(other), ring)

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_commutative_and_associative(self, ring):
        table = build_table(ring)
        assert np.array_equal(table.constants, table.constants.transpose(1, 0, 2))
        assert table.is_associative()

    def test_broken_table_fails_associativity(self):
        ring = trace_ring(3)
        table = build_table(ring)
        broken = StructureTable(ring.group, table.constants.copy())
        broken.constants[4, 5, 0] += 1
        assert not broken.is_associative()
        with pytest.raises(ValueError, match="table not associative"):
            broken.radical()


def non_associative_rows(constants: np.ndarray) -> set[int]:
    """The i of every basis triple with (e_i e_j) e_k != e_i (e_j e_k)."""
    left = np.einsum("ijm,mkl->ijkl", constants, constants)
    right = np.einsum("jkm,iml->ijkl", constants, constants)
    return set(np.flatnonzero((left != right).any(axis=(1, 2, 3))).tolist())


def brute_force_associative(constants: np.ndarray) -> bool:
    """(e_i e_j) e_k == e_i (e_j e_k) on all 8 s^3 basis triples."""
    return not non_associative_rows(constants)


def unit_generators(group: AbelianGroup) -> list[int]:
    units = [tuple(int(i == j) for j in range(len(group.orders)))
             for i in range(len(group.orders))]
    return sorted(group.index(e) for e in units) + [group.size]


def perturbed_tables():
    """Seeded +-1/+2 changes to one or two constants of each RINGS table; half
    of them hit a product with a generator, which can break generation."""
    rng = random.Random(0xA55)
    for ring in RINGS:
        base = build_table(ring).constants
        gens = unit_generators(ring.group)
        for trial in range(16):
            constants = base.copy()
            for _ in range(rng.randint(1, 2)):
                i, j, k = (rng.randrange(len(base)) for _ in range(3))
                if trial % 2:
                    i, j = rng.sample([rng.choice(gens), i], 2)
                constants[i, j, k] += rng.choice((-1, 1, 2))
            yield StructureTable(ring.group, constants)


class TestLightAssociativity:
    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_valid_tables_use_the_unit_generators(self, ring):
        table = build_table(ring)
        assert table.generators() == unit_generators(ring.group)
        assert len(table.generators()) == len(ring.group.orders) + 1
        assert table.is_associative() and brute_force_associative(table.constants)

    def test_order_one_factors_add_no_generator(self):
        # The unit of an order-1 factor is the identity, S_0, which S_1 reaches.
        padded = build_table(make_ring((4, 1, 1), {(0, 0, 0): 1, (2, 0, 0): 2, (3, 0, 0): 1}))
        plain = build_table(RINGS[3])  # the same element on Z4
        assert np.array_equal(padded.constants, plain.constants)
        assert padded.generators() == plain.generators() == [1, 4]
        assert padded.is_associative()

    @pytest.mark.parametrize("orders", [(1,), (1, 1, 1)], ids=str)
    def test_trivial_group_checks_the_whole_basis(self, orders):
        table = build_table(make_ring(orders, {(0,) * len(orders): 2}))
        assert table.generators() == [0, 1]
        assert table.is_associative() and brute_force_associative(table.constants)

    def test_agrees_with_brute_force_on_perturbed_tables(self):
        verdicts = []
        for table in perturbed_tables():
            assert table.constants.dtype == np.int8
            expected = brute_force_associative(table.constants)
            assert table.is_associative() == expected
            verdicts.append(expected)
        assert not all(verdicts)

    def test_broken_generation_checks_the_whole_basis(self):
        ring = RINGS[3]  # Z4: S_1 * S_1 = S_2, the only way to reach S_2
        constants = build_table(ring).constants.copy()
        constants[1, 1, 0] += 1
        table = StructureTable(ring.group, constants)
        assert table.generators() == list(range(table.dim))
        assert table.is_associative() == brute_force_associative(constants) is False

    @pytest.mark.parametrize("value", [300, 2**20, 2**40],
                             ids=["float32", "float64", "python-int"])
    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_perturbation_that_needs_a_wider_dtype(self, ring, value):
        # A widened copy of the int8 table with one constant too large for
        # int8; the value picks the tier Light's test casts the table to.
        constants = build_table(ring).constants.astype(np.int64)
        d = len(constants)
        constants[d - 1, d - 1, d - 1] = value
        table = StructureTable(ring.group, constants)
        assert table.is_associative() == brute_force_associative(constants) is False

    def test_perturbation_in_the_last_row_block(self):
        # d = 40: Light's test runs over one block of 32 rows x and a last
        # block of 8, and the broken constant sits in row x = d - 1.
        ring = make_ring((4, 5), {(0, 0): 1, (1, 2): 2, (3, 4): 1})
        table = build_table(ring)
        assert table.dim == 40 and table.constants.dtype == np.int8
        assert table.is_associative() and brute_force_associative(table.constants)
        constants = table.constants.copy()
        d = table.dim
        constants[d - 1, d - 1, 0] += 1
        broken = StructureTable(ring.group, constants)
        assert broken.is_associative() == brute_force_associative(constants) is False

    def test_table_that_fails_only_in_the_last_row(self):
        # e_(d-1) e_0 = e_(d-1) and every other product 0: then
        # (e_(d-1) e_0) e_0 = e_(d-1) but e_(d-1) (e_0 e_0) = 0, and every
        # failing triple starts with x = d - 1, in the partial last block.
        group = AbelianGroup((4, 5))
        d = 2 * group.size
        constants = np.zeros((d, d, d), dtype=np.int8)
        constants[d - 1, 0, d - 1] = 1
        assert non_associative_rows(constants) == {d - 1}
        assert StructureTable(group, constants).is_associative() is False

    def test_object_constants_with_huge_multiplicity(self):
        ring = make_ring((4,), {(0,): 2**63, (2,): 1})
        table = build_table(ring)
        assert table.constants.dtype == object
        assert table.generators() == unit_generators(ring.group)
        assert table.is_associative() and brute_force_associative(table.constants)
        constants = table.constants.copy()
        constants[5, 6, 4] += 1
        broken = StructureTable(ring.group, constants)
        assert broken.is_associative() == brute_force_associative(constants) is False


class TestRadical:
    def test_order_two_dimension_one(self):
        assert len(build_table(make_ring((2,), {(0,): 1, (1,): 1})).radical()) == 1

    def test_full_support_dimension_zero(self):
        assert len(build_table(make_ring((2,), {(0,): 2})).radical()) == 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trace_ring_dimension(self, n):
        assert len(build_table(trace_ring(n)).radical()) == n - 1

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_dimension_matches_spectral_count(self, ring):
        radical = build_table(ring).radical()
        assert len(radical) == ring.group.size - spectral_report(ring).support_size

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_kernel_vectors_annihilate_the_trace_form(self, ring):
        table = build_table(ring)
        gram = table.trace_form()
        for vec in table.radical():
            residual = [
                sum(int(gram[i][j]) * vec[j] for j in range(table.dim))
                for i in range(table.dim)
            ]
            assert not any(residual)

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_span_agreement_with_spectral(self, ring):
        radical = build_table(ring).radical()
        assert radical_matches_spectral(radical, spectral_report(ring).nilpotents)

    def test_dimension_mismatch_rejected(self):
        ring = make_ring((2,), {(0,): 1, (1,): 1})
        radical = build_table(ring).radical()
        assert not radical_matches_spectral(radical, [])

    def test_wrong_span_rejected(self):
        ring = make_ring((2,), {(0,): 1, (1,): 1})
        radical = build_table(ring).radical()
        impostor = [ring.projective_class((0,))]
        assert not radical_matches_spectral(radical, impostor)


class TestRadicalCertificate:
    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_certified_without_exact_path(self, ring, monkeypatch):
        table = build_table(ring)
        expected = len(table.radical())
        monkeypatch.setattr(StructureTable, "radical", lambda self: pytest.fail("exact path"))
        assert certify_radical(table, spectral_report(ring).nilpotents) == (expected, True)

    def test_simple_component_falls_back(self):
        ring = trace_ring(4)
        nils = list(spectral_report(ring).nilpotents)
        with_simple = [ring.simple_class((1,))] + nils[1:]
        assert certify_radical(build_table(ring), with_simple) == (3, False)

    def test_requires_associative_table(self):
        ring = trace_ring(3)
        broken = StructureTable(ring.group, build_table(ring).constants.copy())
        broken.constants[4, 5, 0] += 1
        with pytest.raises(ValueError, match="table not associative"):
            certify_radical(broken, spectral_report(ring).nilpotents)

    def test_trace_form_is_exact_for_huge_multiplicities(self):
        for coeff in (127, 2**20, 2**31, 2**62, 2**63):
            table = build_table(make_ring((4,), {(0,): coeff}))
            c = table.constants.tolist()
            traces = [sum(c[k][l][l] for l in range(table.dim)) for k in range(table.dim)]
            expected = [
                [sum(c[i][j][k] * traces[k] for k in range(table.dim)) for j in range(table.dim)]
                for i in range(table.dim)
            ]
            assert table.trace_form().tolist() == expected


class TestVerify:
    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_block_confirms_the_report(self, ring):
        report = spectral_report(ring)
        block, ok = oracle.verify(report)
        assert ok is True
        assert block == {
            "associative": True,
            "matches_pair_ring": True,
            "radical_dim": ring.group.size - report.support_size,
            "radical_matches_spectral": True,
        }

    def test_non_associative_table(self, monkeypatch):
        monkeypatch.setattr(StructureTable, "is_associative", lambda self: False)
        block, ok = oracle.verify(spectral_report(trace_ring(3)))
        assert ok is False
        assert block == {
            "associative": False,
            "matches_pair_ring": True,
            "radical_dim": -1,
            "radical_matches_spectral": False,
        }

    def test_radical_dimension_must_equal_the_nilpotent_count(self, monkeypatch):
        monkeypatch.setattr(oracle, "certify_radical", lambda table, nils: (len(nils) + 1, True))
        block, ok = oracle.verify(spectral_report(trace_ring(3)))
        assert block["radical_dim"] == 3
        assert ok is False


class TestTensorShapes:
    def test_shape_validation(self):
        g = AbelianGroup((2,))
        with pytest.raises(ValueError):
            StructureTable(g, np.zeros((2, 2, 2), dtype=np.int64))

    def test_constants_are_nonnegative(self):
        for ring in RINGS:
            assert int(build_table(ring).constants.min()) >= 0
