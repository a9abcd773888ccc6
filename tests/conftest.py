"""Shared fixtures: deterministic random corpus, comparison helpers and
the full-rank checker."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest

from pcring import (
    AbelianGroup,
    CycloNum,
    GroupRingElement,
    PairElement,
    ProjectiveClassRing,
    linalg,
    trace_element,
)

CORPUS_SEED = 0x5EED
CORPUS_SIZE = 104

# Cyclic factor orders the corpus draws from; tuples are rejected unless
# their lcm stays <= 30 and their product (the group size) stays <= 30.
FACTOR_POOL = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
               18, 20, 21, 22, 24, 26, 28, 30)


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    ring: ProjectiveClassRing

    @property
    def group(self) -> AbelianGroup:
        return self.ring.group


def embed_element(elem: GroupRingElement, order: int | None = None) -> GroupRingElement:
    """Coerce integer/fraction coefficients into the cyclotomic field."""
    if order is None:
        order = elem.group.conductor
    return elem.map_coefficients(
        lambda v: v if isinstance(v, CycloNum) else CycloNum.rational(order, v)
    )


def elements_equal(a: GroupRingElement, b: GroupRingElement) -> bool:
    order = a.group.conductor
    return embed_element(a, order) == embed_element(b, order)


def pairs_equal(a: PairElement, b: PairElement) -> bool:
    return elements_equal(a.s_part, b.s_part) and elements_equal(a.t_part, b.t_part)


def unit_generators(group: AbelianGroup) -> list[int]:
    """Basis indices of the S_(e_i), one per cyclic factor of order above 1,
    then P_0: the generating set Light's test takes on every table
    ``build_table`` makes.  S_0 stands in for the S_(e_i) of the trivial
    group, where no S_(e_i) reaches it."""
    units = [tuple(int(i == j) for j in range(len(group.orders)))
             for i, n in enumerate(group.orders) if n > 1]
    return (sorted(group.index(e) for e in units) or [0]) + [group.size]


def certify_full_row_rank(rows, order: int) -> bool:
    """True iff the rows (entries in Q(zeta_order) or rational) are linearly
    independent.  Modular certificates first (full rank of the image mod p
    implies full rank), exact elimination when no prime certifies it."""
    m = len(rows)
    if m == 0:
        return True
    if m > len(rows[0]):
        return False
    nums, index = linalg.distinct_numerators(rows, order)
    for p, w in linalg.modular_primes(order):
        if linalg.rank_mod_p(linalg.image_mod_p(nums, p, w)[index], p) == m:
            return True
    embedded = [
        [e if isinstance(e, CycloNum) else CycloNum.rational(order, e) for e in row]
        for row in rows
    ]
    return len(linalg.rref(embedded)[1]) == m


def random_element(rng: random.Random, group: AbelianGroup,
                   max_support: int = 3, lo: int = -3, hi: int = 3) -> GroupRingElement:
    elems = group.elements()
    coeffs: dict = {}
    for _ in range(rng.randint(0, max_support)):
        a = elems[rng.randrange(len(elems))]
        coeffs[a] = coeffs.get(a, 0) + rng.randint(lo, hi)
    return GroupRingElement(group, coeffs)


def random_pair(rng: random.Random, group: AbelianGroup,
                max_support: int = 3, lo: int = -3, hi: int = 3) -> PairElement:
    return PairElement(
        random_element(rng, group, max_support, lo, hi),
        random_element(rng, group, max_support, lo, hi),
    )


def _draw_group(rng: random.Random) -> AbelianGroup:
    while True:
        t = rng.choice((1, 1, 1, 1, 2, 2, 3))
        orders = tuple(rng.choice(FACTOR_POOL) for _ in range(t))
        if 2 <= math.prod(orders) <= 30 and math.lcm(*orders) <= 30:
            return AbelianGroup(orders)


def _draw_canonical(rng: random.Random, group: AbelianGroup) -> GroupRingElement:
    elems = group.elements()
    style = rng.random()
    coeffs: dict = {}
    if style < 0.2:
        coeffs = {a: 1 for a in elems}
    elif style < 0.5:
        coeffs = {a: rng.randint(0, 5) for a in elems}
    else:
        for _ in range(rng.randint(1, min(4, len(elems)))):
            coeffs[elems[rng.randrange(len(elems))]] = rng.randint(1, 5)
    identity = group.identity
    if coeffs.get(identity, 0) < 1:
        coeffs[identity] = rng.randint(1, 5)
    if sum(coeffs.values()) < 2:
        coeffs[identity] = 2
    return GroupRingElement(group, coeffs)


def _pinned_instances() -> list[CorpusInstance]:
    def inst(name, orders, coeffs):
        group = AbelianGroup(orders)
        elem = GroupRingElement(group, coeffs)
        return CorpusInstance(name, ProjectiveClassRing(elem))

    def trace_inst(name, orders):
        group = AbelianGroup(orders)
        return CorpusInstance(name, ProjectiveClassRing(trace_element(group)))

    return [
        inst("trivial-group", (1,), {(0,): 2}),
        trace_inst("order-2-trace", (2,)),
        inst("order-2-double-unit", (2,), {(0,): 2}),
        inst("order-2-mixed", (2,), {(0,): 2, (1,): 1}),
        trace_inst("order-3-trace", (3,)),
        trace_inst("klein-trace", (2, 2)),
        inst("order-4-custom", (4,), {(0,): 1, (2,): 2, (3,): 1}),
        trace_inst("order-30-trace", (30,)),
        inst("rank2-2x15", (2, 15), {(0, 0): 3, (1, 7): 2, (0, 4): 1}),
        inst("rank2-5x5", (5, 5), {(0, 0): 1, (2, 3): 4}),
        inst("rank3-2x2x2", (2, 2, 2), {(0, 0, 0): 2, (1, 1, 0): 3, (0, 1, 1): 1}),
        inst("order-12-sparse", (12,), {(0,): 1, (5,): 5, (6,): 1}),
        inst("rank2-4x6", (4, 6), {(0, 0): 2, (3, 1): 1, (1, 4): 2}),
        trace_inst("rank3-3x3x3-trace", (3, 3, 3)),
        inst("order-28-sparse", (28,), {(0,): 1, (14,): 3}),
        trace_inst("rank3-2x3x5-trace", (2, 3, 5)),
    ]


def build_corpus() -> list[CorpusInstance]:
    rng = random.Random(CORPUS_SEED)
    corpus = _pinned_instances()
    counter = 0
    while len(corpus) < CORPUS_SIZE:
        group = _draw_group(rng)
        canonical = _draw_canonical(rng, group)
        counter += 1
        corpus.append(
            CorpusInstance(f"random-{counter:03d}", ProjectiveClassRing(canonical))
        )
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[CorpusInstance]:
    return build_corpus()
