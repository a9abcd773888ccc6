"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -s``) and fails loudly with
the offending instances listed.  Everything asserted here is exact; the two
runtime budgets are enforced with a wall clock.
"""

import math
import random
import time
from fractions import Fraction

from conftest import certify_full_row_rank, embed_element, pairs_equal, random_pair
from pcring import (
    CycloNum,
    GroupRingElement,
    ProjectiveClassRing,
    build_table,
    certify_radical,
    cyclotomic_polynomial,
    euler_phi,
    fourier,
    inverse_fourier,
    matches_pair_ring,
    radical_matches_spectral,
    root_of_unity,
    spectral_report,
    uq_sl2,
)
from pcring import linalg


def _finish(num: int, name: str, failures: list[str],
            elapsed: float | None = None, budget: float | None = None) -> None:
    if budget is not None and elapsed is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num}] {name}: {status}{timing}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:8])


def _uq_ring(n: int) -> ProjectiveClassRing:
    return uq_sl2(n).ring


def test_criterion_1_half_quantum_golden_suite():
    failures: list[str] = []
    start = time.perf_counter()
    for n in range(2, 13):
        ring = _uq_ring(n)
        report = spectral_report(ring)
        if report.support_size != 1:
            failures.append(f"n={n}: support size {report.support_size} != 1")
        if report.decomposition != f"C^2 x C[eps]^{n - 1}":
            failures.append(f"n={n}: decomposition {report.decomposition}")
    elapsed = time.perf_counter() - start
    _finish(1, "half-quantum golden suite", failures, elapsed, budget=1.0)


def test_criterion_2_half_quantum_nilradical_statements():
    failures: list[str] = []
    for n in range(2, 13):
        ring = _uq_ring(n)
        group = ring.group
        order = group.conductor

        report = spectral_report(ring)
        if report.support != (group.identity,):
            failures.append(f"n={n}: pairing support {report.support}")

        def embed(value):
            return value if isinstance(value, CycloNum) else CycloNum.rational(order, value)

        nils = report.nilpotents
        nil_rows = [
            [embed(nil.t_part.coefficient(a)) for a in group.elements()] for nil in nils
        ]
        aug_rows = []
        for target in group.elements()[1:]:
            elem = GroupRingElement(group, {target: 1, group.identity: -1})
            aug_rows.append([embed(elem.coefficient(a)) for a in group.elements()])
        if len(nil_rows) != n - 1:
            failures.append(f"n={n}: nilradical dimension {len(nil_rows)}")
        reduced_nil, pivots_nil = linalg.rref(nil_rows)
        reduced_aug, pivots_aug = linalg.rref(aug_rows)
        if not all(linalg.in_row_span(reduced_nil, pivots_nil, row) for row in aug_rows):
            failures.append(f"n={n}: augmentation ideal not inside the nilradical span")
        if not all(linalg.in_row_span(reduced_aug, pivots_aug, row) for row in nil_rows):
            failures.append(f"n={n}: nilradical not inside the augmentation ideal span")

        for a in group.elements():
            for b in group.elements():
                diff = ring.projective_class(a) - ring.projective_class(b)
                if not ring.mul(diff, diff).is_zero():
                    failures.append(f"n={n}: ({a},{b}) difference square nonzero")
    _finish(2, "half-quantum nilradical statements", failures)


def test_criterion_3_idempotent_system_audit(corpus):
    failures: list[str] = []
    tested = [(f"uq-sl2({n})", _uq_ring(n)) for n in range(2, 13)]
    tested += [(inst.name, inst.ring) for inst in corpus if inst.group.size <= 10]
    for name, ring in tested:
        report = spectral_report(ring)
        idems = report.idempotents
        expected_count = ring.group.size + report.support_size
        if len(idems) != expected_count:
            failures.append(f"{name}: {len(idems)} idempotents, expected {expected_count}")
            continue
        for i, e in enumerate(idems):
            if not pairs_equal(ring.mul(e, e), e):
                failures.append(f"{name}: idempotent {i} does not square to itself")
        for i, e in enumerate(idems):
            for j in range(i + 1, len(idems)):
                if not ring.mul(e, idems[j]).is_zero():
                    failures.append(f"{name}: product of idempotents {i},{j} nonzero")
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        if not pairs_equal(total, ring.one()):
            failures.append(f"{name}: idempotents do not sum to the unit")
    _finish(3, f"idempotent system audit ({len(tested)} instances)", failures)


def test_criterion_4_oracle_equivalence(corpus):
    failures: list[str] = []
    if len(corpus) < 100:
        failures.append(f"corpus has only {len(corpus)} instances")
    for inst in corpus:
        orders = inst.group.orders
        if math.lcm(*orders) > 30:
            failures.append(f"{inst.name}: lcm {math.lcm(*orders)} out of range")
        if any(not (0 <= c <= 5) for _, c in inst.ring.canonical.items()):
            failures.append(f"{inst.name}: canonical coefficient out of 0..5")

    start = time.perf_counter()
    for inst in corpus:
        ring = inst.ring
        table = build_table(ring)
        if not matches_pair_ring(table, ring):
            failures.append(f"{inst.name}: table does not match the pair ring")
            continue
        if len(table.generators()) > len(inst.group.orders) + 1:
            failures.append(f"{inst.name}: generation by S_(e_i) and P_0 not shown")
        if not table.is_associative():
            failures.append(f"{inst.name}: table not associative")
            continue
        expected = ring.group.size - spectral_report(ring).support_size
        got = len(table.radical())
        if got != expected:
            failures.append(f"{inst.name}: radical dimension {got}, expected {expected}")
    elapsed = time.perf_counter() - start
    _finish(4, f"oracle equivalence ({len(corpus)} instances)", failures, elapsed, budget=60.0)


def test_criterion_5_radical_span_agreement(corpus):
    failures: list[str] = []
    for inst in corpus:
        ring = inst.ring
        table = build_table(ring)
        radical = table.radical()
        nils = list(spectral_report(ring).nilpotents)
        if len(radical) != len(nils):
            failures.append(f"{inst.name}: oracle dimension {len(radical)}, spectral {len(nils)}")
            continue
        if not radical_matches_spectral(radical, nils):
            failures.append(f"{inst.name}: spans differ")
        # The certificate must agree with the exact path, also on variants
        # that it cannot certify and hands to the exact fallback.
        impostor = [ring.projective_class(ring.group.identity)] + nils[1:]
        for label, variant in (("nilradical", nils), ("dropped last", nils[:-1]),
                               ("impostor", impostor)):
            expected = (len(radical), radical_matches_spectral(radical, variant))
            got = certify_radical(table, variant)
            if got != expected:
                failures.append(f"{inst.name} ({label}): certificate {got}, exact {expected}")
        # A second copy of n_0 in place of n_1 keeps the count and the
        # inclusion in the radical; only the rank, m - 1, tells the spans apart.
        if len(nils) >= 2:
            duplicate = [nils[0], nils[0]] + nils[2:]
            expected = (len(radical), False)
            exact = (len(radical), radical_matches_spectral(radical, duplicate))
            got = certify_radical(table, duplicate)
            if (exact, got) != (expected, expected):
                failures.append(f"{inst.name} (duplicate): certificate {got}, exact {exact}")
    _finish(5, f"radical span agreement ({len(corpus)} instances)", failures)


def test_criterion_6_homomorphism_and_algebra_laws(corpus):
    failures: list[str] = []
    rng = random.Random(0xA15)
    for inst in corpus:
        ring = inst.ring
        group = ring.group
        ok = True
        for _ in range(100):
            x = random_pair(rng, group, max_support=2)
            y = random_pair(rng, group, max_support=2)
            z = random_pair(rng, group, max_support=2)
            xy = ring.mul(x, y)
            if ring.mul(xy, z) != ring.mul(x, ring.mul(y, z)):
                failures.append(f"{inst.name}: associativity breaks")
                ok = False
                break
            if xy != ring.mul(y, x):
                failures.append(f"{inst.name}: commutativity breaks")
                ok = False
                break
            if ring.dimension_vector(xy) != ring.dimension_vector(x) * ring.dimension_vector(y):
                failures.append(f"{inst.name}: dimension vector is not multiplicative")
                ok = False
                break
            if ring.dimension_vector(x + y) != ring.dimension_vector(x) + ring.dimension_vector(y):
                failures.append(f"{inst.name}: dimension vector is not additive")
                ok = False
                break
        if not ok:
            continue
    _finish(6, f"ring homomorphism and algebra laws ({len(corpus)} instances)", failures)


def test_criterion_7_cyclotomic_substrate_and_round_trip(corpus):
    failures: list[str] = []
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                out = [0] * (len(prod) + len(cyclotomic_polynomial(d)) - 1)
                for i, a in enumerate(prod):
                    if a:
                        for j, b in enumerate(cyclotomic_polynomial(d)):
                            out[i + j] += a * b
                prod = out
        if prod != [-1] + [0] * (n - 1) + [1]:
            failures.append(f"divisor product fails at N={n}")
        if len(cyclotomic_polynomial(n)) - 1 != euler_phi(n):
            failures.append(f"degree mismatch at N={n}")

    rng = random.Random(0xF00)
    groups = {inst.group.orders: inst.group for inst in corpus}
    for orders, group in sorted(groups.items()):
        n = group.conductor
        for _ in range(3):
            coeffs = {}
            for _ in range(rng.randint(1, 4)):
                a = group.elements()[rng.randrange(group.size)]
                scalar = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                coeffs[a] = root_of_unity(n, rng.randrange(n)) * scalar
            x = GroupRingElement(group, coeffs)
            if inverse_fourier(group, fourier(group, x)) != embed_element(x, n):
                failures.append(f"round trip fails over {orders}")
                break
    _finish(7, f"cyclotomic substrate and round trip ({len(groups)} groups)", failures)


def test_criterion_8_dimension_audit(corpus):
    failures: list[str] = []
    for inst in corpus:
        ring = inst.ring
        report = spectral_report(ring)
        idems, nils = report.idempotents, report.nilpotents
        s, r = ring.group.size, report.support_size
        if len(idems) != s + r or len(nils) != s - r:
            failures.append(f"{inst.name}: counts {len(idems)}/{len(nils)} != {s + r}/{s - r}")
            continue
        rows = [e.coefficient_vector() for e in idems + nils]
        if not certify_full_row_rank(rows, ring.group.conductor):
            failures.append(f"{inst.name}: rank below {2 * s}")
    _finish(8, f"dimension audit ({len(corpus)} instances)", failures)
