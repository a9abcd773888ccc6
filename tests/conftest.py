"""Shared fixtures: deterministic random corpus, comparison helpers and
the full-rank checker with its modular rank routines."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np
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


# Primes a modular certificate tries before exact elimination decides.
PRIME_ATTEMPTS = 3


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _unity_root_mod(p: int, order: int) -> int:
    # An element of multiplicative order exactly `order` in GF(p), p == 1 mod order:
    # w**order == 1, and w**d != 1 for every proper divisor d of order.  GF(p)* is
    # cyclic, so a primitive root lies below p and its power qualifies.
    exponent = (p - 1) // order
    divisors = [d for d in range(1, order) if order % d == 0]
    powers = (pow(candidate, exponent, p) for candidate in range(2, p))
    return next(w for w in powers if all(pow(w, d, p) != 1 for d in divisors))


def modular_primes(order: int) -> Iterator[tuple[int, int]]:
    """The first ``PRIME_ATTEMPTS`` primes p == 1 (mod order) above 10**6,
    each with an element w of multiplicative order exactly ``order`` in GF(p).

    zeta_order |-> w defines a ring homomorphism Z[zeta_order] -> GF(p).
    For every order up to 256 (the largest conductor the CLI accepts) the
    primes stay below 1.02 * 10**6 < 2**20, inside the bounds
    ``image_mod_p`` and ``rank_mod_p`` require.
    """
    p = 1_000_003
    p += (-(p - 1)) % order  # first candidate with p == 1 mod order
    for _ in range(PRIME_ATTEMPTS):
        while not _is_prime(p):
            p += order
        yield p, _unity_root_mod(p, order)
        p += order


def image_mod_p(nums: np.ndarray, p: int, w: int) -> np.ndarray:
    """Image mod p under zeta |-> w of the values whose power-basis
    numerators are the rows of ``nums``, as ``distinct_numerators`` returns
    them.  The residues are below p and each sum has phi terms below p**2:
    exact in int64 for every prime ``modular_primes`` yields (p < 2**20,
    phi < 256)."""
    powers = np.array([pow(w, k, p) for k in range(nums.shape[1])], dtype=np.int64)
    return (nums % p).astype(np.int64) @ powers % p


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an integer matrix, for a prime p < 2**31.

    Row reduction on int64 residues in [0, p): every product stays below
    p**2 < 2**62.  Rank mod p never exceeds the rank over Q.
    """
    work = (matrix % p).astype(np.int64)
    nrows, ncols = work.shape
    rk = 0
    for col in range(ncols):
        if rk == nrows:
            break
        candidates = np.flatnonzero(work[rk:, col])
        if not candidates.size:
            continue
        pivot = rk + int(candidates[0])
        if pivot != rk:
            work[[rk, pivot]] = work[[pivot, rk]]
        inv = pow(int(work[rk, col]), -1, p)
        work[rk, col:] = work[rk, col:] * inv % p
        below = rk + 1 + np.flatnonzero(work[rk + 1:, col])
        if below.size:
            factors = work[below, col]
            work[below, col:] = (work[below, col:] - np.outer(factors, work[rk, col:])) % p
        rk += 1
    return rk


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
    for p, w in modular_primes(order):
        if rank_mod_p(image_mod_p(nums, p, w)[index], p) == m:
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
