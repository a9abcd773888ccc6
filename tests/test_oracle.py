"""Tests for the structure-constants oracle and its cross-checks."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import unit_generators
from pcring import oracle
from pcring import (
    AbelianGroup,
    CycloNum,
    GroupRingElement,
    PairElement,
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
    return ProjectiveClassRing(GroupRingElement(g, coeffs))


def trace_ring(n) -> ProjectiveClassRing:
    g = AbelianGroup((n,))
    return ProjectiveClassRing(trace_element(g))


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
    """The i of every basis triple with (e_i e_j) e_k != e_i (e_j e_k), one
    row i at a time: (e_i e_j) e_k = sum_m c_ijm c_mkl over all j, k, l and
    e_i (e_j e_k) = sum_m c_jkm c_iml.  In float64 when d max|c|^2 < 2**53,
    so that every sum is exact, and in Python integers otherwise."""
    d = len(constants)
    top = int(np.abs(constants).max())
    c = constants.astype(np.float64 if d * top * top < 2**53 else object)
    return {i for i in range(d)
            if not np.array_equal(c[i] @ c.reshape(d, d * d),
                                  (c.reshape(d * d, d) @ c[i]).reshape(d, d * d))}


def brute_force_associative(constants: np.ndarray) -> bool:
    """(e_i e_j) e_k == e_i (e_j e_k) on all 8 s^3 basis triples."""
    return not non_associative_rows(constants)


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
        assert table._light_sets() == (unit_generators(ring.group), [0, ring.group.size])
        assert len(table._light_sets()[0]) == len(ring.group.orders) + 1
        assert table.is_associative() and brute_force_associative(table.constants)

    def test_order_one_factors_add_no_generator(self):
        # The unit of an order-1 factor is the identity, S_0, which S_1 reaches.
        padded = build_table(make_ring((4, 1, 1), {(0, 0, 0): 1, (2, 0, 0): 2, (3, 0, 0): 1}))
        plain = build_table(RINGS[3])  # the same element on Z4
        assert np.array_equal(padded.constants, plain.constants)
        assert padded._light_sets()[0] == plain._light_sets()[0] == [1, 4]
        assert padded.is_associative()

    @pytest.mark.parametrize("orders", [(1,), (1, 1, 1)], ids=str)
    def test_trivial_group_checks_the_whole_basis(self, orders):
        table = build_table(make_ring(orders, {(0,) * len(orders): 2}))
        assert table._light_sets() == ([0, 1], [0, 1])
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
        # Z4 with S_1 S_1 = S_0 + S_2: the row of S_1 is no permutation, so
        # no S_(e_i) qualifies and every index is its own orbit.
        ring = RINGS[3]
        constants = build_table(ring).constants.copy()
        constants[1, 1, 0] += 1
        table = StructureTable(ring.group, constants)
        assert table._light_sets() == (list(range(table.dim)), list(range(table.dim)))
        assert table.is_associative() == brute_force_associative(constants) is False

    @pytest.mark.parametrize("value", [300, 2**20, 2**40, 2**63],
                             ids=["float32", "float64", "python-int", "object-table"])
    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_perturbation_that_needs_a_wider_dtype(self, ring, value):
        # A widened copy of the int8 table with one constant too large for
        # int8; the value picks the tier Light's test casts the table to.
        constants = build_table(ring).constants.astype(np.int64 if value < 2**63 else object)
        d = len(constants)
        constants[d - 1, d - 1, d - 1] = value
        table = StructureTable(ring.group, constants)
        assert table.is_associative() == brute_force_associative(constants) is False

    def test_perturbation_in_the_last_row_block(self):
        # d = 40: each product reads its inner indices in one block of 32
        # and a last block of 8, and the broken constant sits in row
        # x = d - 1.
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

    def test_table_that_fails_only_at_the_last_pair(self):
        # e_(d-1) e_(d-1) = e_1 and e_1 e_2 = e_3, every other product 0:
        # (e_(d-1) e_(d-1)) e_2 = e_3 but e_(d-1) (e_(d-1) e_2) = 0, and no
        # other triple fails.  No S_(e_i) qualifies, so Light's test takes
        # all 36 pairs (a, x), and the one failing pair, a = x = d - 1, is
        # the last it checks.
        group = AbelianGroup((3,))
        d = 2 * group.size
        constants = np.zeros((d, d, d), dtype=np.int8)
        constants[d - 1, d - 1, 1] = 1
        constants[1, 2, 3] = 1
        table = StructureTable(group, constants)
        assert non_associative_rows(constants) == {d - 1}
        assert table._light_sets() == (list(range(d)), list(range(d)))
        assert table.is_associative() is False

    def test_agrees_with_brute_force_on_the_corpus(self, corpus):
        # Each valid table and one seeded +1 change to it.
        rng = random.Random(0xC0)
        for inst in corpus:
            table = build_table(inst.ring)
            constants = table.constants
            assert table._light_sets() == (unit_generators(inst.group), [0, inst.group.size])
            assert table.is_associative()
            assert brute_force_associative(constants)
            broken = constants.copy()
            broken[tuple(rng.randrange(len(constants)) for _ in range(3))] += 1
            expected = brute_force_associative(broken)
            assert StructureTable(inst.group, broken).is_associative() == expected, inst.name

    @pytest.mark.parametrize("n", range(2, 41))
    def test_agrees_with_brute_force_on_uq_sl2(self, n):
        # d = 2n runs past one block of 32 rows from n = 17 on.
        table = build_table(trace_ring(n))
        assert table._light_sets() == ([1, n], [0, n])
        assert table.is_associative() and brute_force_associative(table.constants)

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_mutant_generator_row_drops_out(self, ring):
        # Every one-entry change to the row of each S_(e_i): 0 -> 1, 1 -> 0
        # and 1 -> 2.  Left multiplication by it is then no unit
        # permutation, so its orbits are not merged.
        valid = build_table(ring)
        base = valid.constants
        verdicts = []
        for g in unit_generators(ring.group)[:-1]:
            assert valid._nucleus_permutation(g) is not None
            for (u, l), entry in np.ndenumerate(base[g]):
                for value in ((1,) if entry == 0 else (0, 2)):
                    constants = base.copy()
                    constants[g, u, l] = value
                    table = StructureTable(ring.group, constants)
                    assert table._nucleus_permutation(g) is None
                    expected = brute_force_associative(constants)
                    assert table.is_associative() == expected
                    verdicts.append(expected)
        assert not any(verdicts)

    def test_permutation_outside_the_left_nucleus_merges_no_orbits(self):
        # Z3 trace ring with S_2 S_0 = S_2 + P_0 - P_1.  S_1 still permutes
        # the basis with unit entries, but (S_1 S_1) S_0 != S_1 (S_1 S_0), so
        # S_1 is not in the left nucleus.  Only rows S_1 and S_2 fail: the
        # orbit of S_0 under S_1, which one row per orbit would skip.  With
        # no qualifying S_(e_i), G and the rows are the whole basis.
        ring = trace_ring(3)
        base = build_table(ring).constants
        constants = base.copy()
        constants[2, 0, 3] += 1
        constants[2, 0, 4] -= 1
        table = StructureTable(ring.group, constants)
        assert np.array_equal(constants[1], base[1])
        assert non_associative_rows(constants) == {1, 2}
        assert table._nucleus_permutation(1) is None
        assert table._light_sets() == (list(range(6)), list(range(6)))
        assert table.is_associative() is False

    def test_only_some_unit_generators_qualify(self):
        # Q[g, x, y]/(g^2 - 1, x^3, y^2) on the labels of Z2 x Z3, g^a x^b y^c
        # at index 6c + 3a + b: S_(a,b) = g^a x^b and P_(a,b) = g^a x^b y.
        # S_(1,0) = g permutes the basis in the left nucleus, with orbits
        # {u, u + 3}; S_(0,1) = x is no permutation, as x x^2 = 0.  G is g and
        # the least index of each orbit without g, the rows one per orbit.
        group = AbelianGroup((2, 3))
        constants = np.zeros((12, 12, 12), dtype=np.int8)
        for a1, b1, c1, a2, b2, c2 in itertools.product(range(2), range(3), range(2), repeat=2):
            if b1 + b2 < 3 and c1 + c2 < 2:
                k = 6 * (c1 + c2) + 3 * ((a1 + a2) % 2) + b1 + b2
                constants[6 * c1 + 3 * a1 + b1, 6 * c2 + 3 * a2 + b2, k] = 1
        table = StructureTable(group, constants)
        assert unit_generators(group) == [1, 3, 6]
        assert table._nucleus_permutation(3) is not None
        assert table._nucleus_permutation(1) is None
        assert table._light_sets() == ([1, 2, 3, 6, 7, 8], [0, 1, 2, 6, 7, 8])
        assert np.array_equal(constants, constants.transpose(1, 0, 2))
        assert table.is_associative() and brute_force_associative(constants)
        # Seeded one-entry changes, each against the check over all triples.
        rng = random.Random(1)
        verdicts = []
        for _ in range(300):
            mutant = constants.copy()
            mutant[tuple(rng.randrange(12) for _ in range(3))] += rng.choice((-1, 1, 2))
            expected = brute_force_associative(mutant)
            assert StructureTable(group, mutant).is_associative() == expected
            verdicts.append(expected)
        assert not all(verdicts)

    @pytest.mark.parametrize("value", [2**20, 2**40, 2**63],
                             ids=["float64", "python-int", "object-table"])
    def test_wide_tiers_over_orbit_representatives(self, value):
        # Multiplicities near `value` on Z2 x Z3 (two S_(e_i), rows S_0 and
        # P_0); float32 rounding makes the valid table at 2**20 fail.  Then
        # +1 on P_1 P_2, a product in no representative row.
        ring = make_ring((2, 3), {(0, 0): value + 3, (0, 1): 2 * value + 5, (0, 2): 1,
                                  (1, 0): 3, (1, 1): 3, (1, 2): 2 * value + 5})
        table = build_table(ring)
        assert table._light_sets() == ([1, 3, 6], [0, 6])
        assert table.is_associative() and brute_force_associative(table.constants)
        constants = table.constants.copy()
        constants[7, 8, 9] += 1
        broken = StructureTable(ring.group, constants)
        assert broken.is_associative() == brute_force_associative(constants) is False

    def test_memory_with_seven_generators(self):
        # Z2^6 (d = 128): six S_(e_i) and P_0, each checked against rows S_0
        # and P_0 one pair per product, whose left side reads only the
        # table rows that row x a reaches.
        ring = make_ring((2,) * 6, {(0,) * 6: 1, (1, 0, 0, 0, 0, 0): 1, (0, 1, 1, 0, 0, 1): 2})
        table = build_table(ring)
        assert len(table._light_sets()[0]) == 7
        tracemalloc.start()
        try:
            associative = table.is_associative()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert associative
        assert peak < 1.5 * 2**20

    def test_object_constants_with_huge_multiplicity(self):
        ring = make_ring((4,), {(0,): 2**63, (2,): 1})
        table = build_table(ring)
        assert table.constants.dtype == object
        assert table._light_sets() == (unit_generators(ring.group), [0, 4])
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


# Rings the certificate decides alone: RINGS, the object tables of
# HUGE_RINGS, uq-sl2(40) in two blocks of nilpotents, a histogram of the c_u
# whose cell at b = 0 (4 * 2**62) passes int64, and an object table with a
# radical of dimension 2.
CERTIFIED_RINGS = RINGS + HUGE_RINGS + [
    trace_ring(40),
    make_ring((4,), {(k,): 2**62 for k in range(4)}),
    make_ring((4,), {(0,): 2**63, (2,): 2**63}),
]
CERTIFIED_IDS = IDS + ["huge-Z4", "huge-Z2xZ3", "uq-sl2(40)", "Z4-all-2**62", "Z4-2**63-pair"]


def exact_path(table: StructureTable, nilpotents) -> tuple[int, bool]:
    radical = table.radical()
    return len(radical), radical_matches_spectral(radical, nilpotents)


@pytest.fixture
def exact_calls(monkeypatch) -> list[StructureTable]:
    """The tables whose exact path has run, in order."""
    calls = []
    radical = StructureTable.radical
    monkeypatch.setattr(StructureTable, "radical", lambda self: calls.append(self) or radical(self))
    return calls


class TestRadicalCertificate:
    @pytest.mark.parametrize("ring", CERTIFIED_RINGS, ids=CERTIFIED_IDS)
    def test_certified_without_exact_path(self, ring, monkeypatch):
        table = build_table(ring)
        expected = len(table.radical())
        monkeypatch.setattr(StructureTable, "radical", lambda self: pytest.fail("exact path"))
        monkeypatch.setattr(StructureTable, "trace_form", lambda self: pytest.fail("trace form"))
        assert certify_radical(table, spectral_report(ring).nilpotents) == (expected, True)

    def test_relabelled_table_takes_the_exact_path(self, exact_calls):
        # The Z4 trace ring with S_1 and S_2 swapped is isomorphic, so still
        # associative, but S_1 S_1 = S_0 is no shift.
        ring = trace_ring(4)
        perm = [0, 2, 1, 3, 4, 5, 6, 7]
        constants = build_table(ring).constants[perm][:, perm][:, :, perm]
        table = StructureTable(ring.group, constants)
        assert table.is_associative()
        nils = spectral_report(ring).nilpotents
        got = certify_radical(table, nils)
        assert exact_calls == [table]
        assert got == exact_path(table, nils)

    @pytest.mark.parametrize("ring", [trace_ring(3), trace_ring(6)], ids=["Z3", "Z6"])
    def test_reversed_nilpotents_take_the_exact_path(self, ring, exact_calls):
        # Each nilpotent is paired with a vanishing character in order.
        table = build_table(ring)
        nils = spectral_report(ring).nilpotents[::-1]
        assert len(nils) >= 2
        got = certify_radical(table, nils)
        assert exact_calls == [table]
        assert got == exact_path(table, nils) == (len(nils), True)

    def test_projective_square_with_a_simple_part_takes_the_exact_path(self, exact_calls):
        # C[Z2] x C[p]/(p^2 - 1) with P_a = S_a p is associative and
        # semisimple.  Its row P_0 P_0 = S_0 has no projective part, so every
        # lambda(b) vanishes, and P_0 + P_1, P_0 - P_1 are eigenvectors of
        # the S_a; but they square to 2 (S_0 + S_1) and 2 (S_0 - S_1).
        ring = make_ring((2,), {(0,): 2})
        constants = build_table(ring).constants.copy()
        constants[2:, 2:] = 0
        for i, j in itertools.product(range(2), repeat=2):
            constants[2 + i, 2 + j, (i + j) % 2] = 1
        table = StructureTable(ring.group, constants)
        assert table.is_associative()
        zero = GroupRingElement.zero(ring.group)
        nils = [PairElement(zero, GroupRingElement(ring.group, {(0,): 1, (1,): k}))
                for k in (1, -1)]
        assert certify_radical(table, nils) == (0, False)
        assert exact_calls == [table]

    def test_rotations_past_int64_are_exact(self):
        # n[0] = a + b zeta on the Z3 trace ring with a - b = 2**63 + 2: the
        # rotations n[0] zeta^k leave int64, and n[1], n[2] below hold what
        # int64 shift-and-fold would wrap them to.  Every entry fits int64,
        # but the vector is no eigenvector, and not in the radical.
        ring = trace_ring(3)
        a, b = 2**62 + 1, -(2**62) - 1
        values = {(0,): (a, b), (1,): (2**63 - 2, b), (2,): (a, -(2**63) + 2)}
        fake = PairElement(GroupRingElement.zero(ring.group), GroupRingElement(
            ring.group, {x: CycloNum(3, v) for x, v in values.items()}))
        honest = spectral_report(ring).nilpotents[1]
        nils = [fake, PairElement(honest.s_part, honest.t_part * 3)]
        assert certify_radical(build_table(ring), nils) == (2, False)

    def test_zero_nilpotent_takes_the_exact_path(self, exact_calls):
        # 0 satisfies n[x] = 0 zeta^(-<x,b>) for every b but spans nothing:
        # its head 0 must be refused.
        ring = trace_ring(4)
        table = build_table(ring)
        nils = list(spectral_report(ring).nilpotents)
        nils[1] = PairElement(nils[1].s_part, GroupRingElement.zero(ring.group))
        assert certify_radical(table, nils) == (3, False)
        assert exact_calls == [table]

    @pytest.mark.parametrize("ring", [make_ring((2,), {(0,): 1, (1,): 1}), trace_ring(3)],
                             ids=["Z2", "Z3"])
    def test_rotation_that_is_no_entry_takes_the_exact_path(self, ring, exact_calls):
        # The first nilpotent is replaced by the all-ones vector, whose value
        # 1 comes first among the distinct values.  Its head rotates to
        # zeta^k, which no entry holds, and must not match the entry 1.
        table = build_table(ring)
        nils = list(spectral_report(ring).nilpotents)
        ones = GroupRingElement(ring.group, dict.fromkeys(ring.group.elements(), 1))
        nils[0] = PairElement(nils[0].s_part, ones)
        assert certify_radical(table, nils) == (len(nils), False)
        assert exact_calls == [table]

    def test_simple_component_falls_back(self):
        ring = trace_ring(4)
        nils = list(spectral_report(ring).nilpotents)
        with_simple = [ring.simple_class((1,))] + nils[1:]
        assert certify_radical(build_table(ring), with_simple) == (3, False)

    def test_nilpotent_outside_the_kernel_in_a_later_block(self):
        # The last of 39 nilpotents is replaced by P_0, which is no
        # eigenvector: P_0[x] = 0 for x != 0, where the rotations of its
        # head 1, the one head that differs from the others, are roots of
        # unity.
        ring = trace_ring(40)
        nils = list(spectral_report(ring).nilpotents)
        impostor = nils[:-1] + [ring.projective_class((0,))]
        assert certify_radical(build_table(ring), impostor) == (39, False)

    @pytest.mark.parametrize("scale, heads", [
        (lambda i: 5 if i == 4 else Fraction(1, 3) if i % 2 else 1, 3),
        (lambda i: Fraction(i + 1, 3), 39),
    ], ids=["three scales", "one scale per nilpotent"])
    def test_one_common_denominator_for_mixed_scales(self, monkeypatch, scale, heads):
        # 39 nilpotents, the i-th scaled by scale(i), so the rows' own
        # denominators differ and one integer D clears them all, and the
        # certificate rotates one head n_j[0] per distinct scale.
        ring = trace_ring(40)
        nils = list(spectral_report(ring).nilpotents)
        scaled = [PairElement(n.s_part, n.t_part.map_coefficients(lambda v, k=scale(i): v * k))
                  for i, n in enumerate(nils)]
        assert len({n.coefficient_vector()[40] for n in scaled}) == heads
        table = build_table(ring)
        monkeypatch.setattr(StructureTable, "radical", lambda self: pytest.fail("exact path"))
        assert certify_radical(table, scaled) == (39, True)

    def test_certificate_memory_at_uq_sl2_128(self):
        # The nilpotents share one n_j[0], rotated once, and the histogram
        # is s x N: no s x s x N array is formed.
        ring = trace_ring(128)  # uq-sl2(128)
        table = build_table(ring)
        nils = list(spectral_report(ring).nilpotents)
        tracemalloc.start()
        try:
            holds = oracle._decomposition_holds(table, nils)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds
        assert peak < 4 * 2**20

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
