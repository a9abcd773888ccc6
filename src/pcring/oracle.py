"""Brute-force realization of the ring as a structure-constants algebra.

The table is assembled directly from the module-theoretic product rules on
the 2s basis classes (s simples followed by s projective covers):

    [S_a] * [S_b]   = [S_(a+b)]
    [S_a] * [P_b]   = [P_(a+b)]       (and symmetrically on the right)
    [P_a] * [P_b]   = sum_u c_u [P_(a+u+b)]

with c_u the composition multiplicities of the canonical element.  The table
is built by index arithmetic: element indices are mixed-radix numbers of the
exponent tuples, computed here from ``elements()`` and ``orders`` and never
read from the group ring's cached sum table, so a fault there cannot hide.
Nothing here touches the pair-ring multiplication or any cyclotomic
arithmetic, so agreement between the two is a genuine cross-check: each of
the 4 s^2 basis products ``ring.mul(x, y)`` is compared, by its nonzero
coordinates, with the nonzero entries of table row (x, y), associativity is
verified by Light's test on a generating set, and the radical is pinned down
through the characteristic-zero trace form criterion (the radical is the
kernel of the exact integer Gram matrix T[i, j] = trace of left
multiplication by e_i * e_j).

``certify_radical`` checks the closed-form nilpotents against that kernel
with a sandwich certificate: exact integer products show T n = 0 for every
power-basis slice of every nilpotent, their rank modulo a prime
p == 1 (mod N) shows dim ker T >= m, and rank_p(T) <= rank_Q(T) shows
dim ker T <= 2s - rank_p(T).  When the two bounds meet at m the nilpotents
span the radical.  Otherwise the exact path decides: a rational basis of
ker T (``StructureTable.radical``, a tuple of vectors), inclusion of the
nilpotents' span in it and the nilpotents' rank over Q(zeta_N)
(``radical_matches_spectral``), which also serve as the reference the
tests compare the certificate against.

``verify`` runs the whole oracle step for one ``SpectralReport``: it
returns the report's ``oracle`` block and whether that block confirms the
report (every check passes and the radical has dimension s - r).

The table stores its constants in the smallest signed integer dtype that
holds the largest multiplicity (int8 for every c_u below 128: 134 MB at the
size bound s = 256), and in Python integers (object dtype) from 2**63 on.
Every product widens: Light's test takes its generating set and its rows
from the orbits of those S_(e_i) that the table shows to permute the basis
and to lie in the left nucleus, (g x) y = g (x y).  Such a g maps each
associator row f_a(x, .) = (x a) . - x (a .) to f_a(g x, .) = g f_a(x, .),
so one row x per orbit suffices, and the qualifying S_(e_i) with one
element of each orbit that holds none of them generate.  For every table
``build_table`` makes that is the generators S_(e_i) and P_0 and the rows
S_0 and P_0, at 2 (2s)^3 multiply-adds per generator and row, where all 2s
rows cost 2 (2s)^4 per generator.  It casts the table to the narrowest exact
tier ``linalg.exact_dtype`` allows (float32, float64 or Python integers) one
chunk of rows at a time, never as a whole.  The trace form reads the
diagonals and makes one product that casts the table in buffered pieces.

This module and ``linalg`` are the only ones that import numpy.  The
package imports them on first access, and the CLI only when it verifies, so
an unverified analysis never loads numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg
from .cyclotomics import CycloNum
from .groups import AbelianGroup
from .pair_ring import PairElement, ProjectiveClassRing

__all__ = [
    "StructureTable",
    "build_table",
    "certify_radical",
    "matches_pair_ring",
    "radical_matches_spectral",
    "verify",
]


# Signed integer dtypes a table may use, narrowest first; object past int64.
_TABLE_DTYPES = (np.int8, np.int16, np.int32, np.int64)

# Rows per block: in Light's test, table rows u per left-nucleus gather,
# table rows m per cast chunk and (generator, row) pairs per product; in
# ``certify_radical``, nilpotents per product with T.  A float32 chunk of
# 32 x (2s)^2 is 32 MB at s = 256, against 537 MB for the whole table cast
# at once.
_BLOCK_ROWS = 32


class StructureTable:
    """Dense integer structure constants c_ijk with e_i * e_j = sum_k c_ijk e_k."""

    def __init__(self, group: AbelianGroup, constants: np.ndarray):
        dim = 2 * group.size
        if constants.shape != (dim, dim, dim):
            raise ValueError(f"expected constants of shape {(dim, dim, dim)}")
        self.group = group
        self.constants = constants
        self.dim = dim
        self._associative: bool | None = None

    def is_associative(self) -> bool:
        """Light's associativity test: (x a) y == x (a y) for every basis y,
        every a in a generating set G and one row x per orbit, with both
        sets from ``_light_sets``.

        The elements a satisfying the identity for all x, y form a
        subalgebra (the middle nucleus), so a generating set suffices.
        When no S_(e_i) qualifies, G and the rows are both the whole basis:
        that is the check over all 8 s^3 basis triples.

        The products run in ``linalg.exact_dtype`` for inner dimension 2s
        and max|c| on both sides: float32 when 2s max|c|^2 < 2**24 (every
        table with multiplicities below 128 at the size bound), float64
        below 2**53, Python integers otherwise.  Every entry and partial
        sum is an integer the dtype represents exactly, so float equality
        is integer equality.  The table is never cast whole:
        ``_associates`` casts it one chunk of ``_BLOCK_ROWS`` rows at a
        time.  The result is cached; constants are treated as frozen once
        any check has run.
        """
        if self._associative is None:
            gens, rows = self._light_sets()
            pairs = [(a, x) for a in gens for x in rows]
            bound = linalg.max_abs(self.constants)
            dtype = linalg.exact_dtype(self.dim, bound, bound)
            self._associative = all(
                self._associates(pairs[i:i + _BLOCK_ROWS], dtype)
                for i in range(0, len(pairs), _BLOCK_ROWS)
            )
        return self._associative

    def _light_sets(self) -> tuple[list[int], list[int]]:
        """Light's test's generating set G and its rows, from the orbits of
        the permutations ``_nucleus_permutation`` finds among the S_(e_i),
        e_i the unit of each cyclic factor of order above 1.

        The rows are the least index of each orbit.  G is the qualifying
        S_(e_i) and the least index of each orbit that holds none of them:
        S_(e_i) and P_0 with rows S_0 and P_0 for every table
        ``build_table`` makes, and the whole basis for both when no S_(e_i)
        qualifies (so for the trivial group).

        G generates: a qualifying g sends e_u to exactly e_pi(u), so every
        element of an orbit is g_1 (g_2 (... (h))) for qualifying g_j and
        the orbit's element h of G.  One row per orbit suffices: write
        f_a(x, y) = (x a) y - x (a y).  A g in the left nucleus,
        (g u) v = g (u v) for all u, v, gives f_a(g x, y) = g f_a(x, y),
        and as g permutes the basis, f_a(x, .) vanishes iff f_a(g x, .)
        does.
        """
        group = self.group
        t = len(group.orders)
        units = sorted(group.index(tuple(int(i == j) for j in range(t)))
                       for i, n in enumerate(group.orders) if n > 1)
        perms = {g: perm.tolist() for g in units
                 if (perm := self._nucleus_permutation(g)) is not None}
        gens = list(perms)
        seen = [False] * self.dim
        rows = []
        for x in range(self.dim):
            if seen[x]:
                continue
            rows.append(x)
            seen[x] = True
            orbit = [x]
            for u in orbit:
                for perm in perms.values():
                    if not seen[v := perm[u]]:
                        seen[v] = True
                        orbit.append(v)
            if perms.keys().isdisjoint(orbit):
                gens.append(x)
        return sorted(gens), rows

    def _associates(self, pairs: list[tuple[int, int]], dtype: np.dtype) -> bool:
        """(x a) y == x (a y) for every (a, x) in ``pairs`` and basis y.

        x (a y) = c[a] @ c[x] per pair, (y, m) times (m, l).  (x a) y is the
        stack of rows c[x, a, :] times c viewed as m -> (y, l), summed over
        the rows m where some c[x, a, m] is nonzero, in chunks of
        ``_BLOCK_ROWS`` rows each cast to ``dtype`` on its own: the table is
        read at most once per call and never cast whole.
        """
        d = self.dim
        c = self.constants
        gens, rows = (list(v) for v in zip(*pairs))
        right = (c[gens].astype(dtype) @ c[rows].astype(dtype)).reshape(len(pairs), d * d)
        heads = c[rows, gens, :]
        support = np.flatnonzero(heads.any(axis=0))
        heads = heads[:, support].astype(dtype)
        left = np.zeros_like(right)
        for i in range(0, len(support), _BLOCK_ROWS):
            chunk = c[support[i:i + _BLOCK_ROWS]].astype(dtype).reshape(-1, d * d)
            left += heads[:, i:i + _BLOCK_ROWS] @ chunk
        return np.array_equal(left, right)

    def _nucleus_permutation(self, g: int) -> np.ndarray | None:
        """pi with g e_u = e_pi(u), when c[g] is a permutation matrix with
        unit entries and g lies in the left nucleus; None otherwise.

        (g e_u) e_v = e_pi(u) e_v and g (e_u e_v) = sum_l c[u, v, l] e_pi(l)
        agree for all u, v iff c[pi(u), v, pi(l)] == c[u, v, l], which is
        checked as a gather over ``_BLOCK_ROWS`` rows u at a time.
        """
        c = self.constants
        unit = c[g] == 1
        if not ((unit | (c[g] == 0)).all() and (unit.sum(axis=0) == 1).all()
                and (unit.sum(axis=1) == 1).all()):
            return None
        pi = unit.argmax(axis=1)
        for u in range(0, self.dim, _BLOCK_ROWS):
            if not np.array_equal(np.take(c[pi[u:u + _BLOCK_ROWS]], pi, axis=2),
                                  c[u:u + _BLOCK_ROWS]):
                return None
        return pi

    def trace_form(self) -> np.ndarray:
        """Gram matrix T[i,j] = trace of left multiplication by e_i * e_j =
        sum_k c_ijk t_k, with t_k the trace of left multiplication by e_k.

        t is read off the diagonals with ``linalg.exact_matmul``; T is one
        ``np.einsum`` in the ``linalg.exact_dtype`` of c and t, which casts
        the table in buffered pieces rather than as a (2s)^2 x 2s copy.
        int64 on the float tiers, Python integers otherwise.
        """
        d = self.dim
        c = self.constants
        traces = linalg.exact_matmul(c.diagonal(axis1=1, axis2=2), np.ones(d, dtype=np.int64))
        dtype = linalg.exact_dtype(d, linalg.max_abs(c), linalg.max_abs(traces))
        gram = np.einsum("ijk,k->ij", c, traces.astype(dtype), dtype=dtype)
        return gram if dtype == object else gram.astype(np.int64)

    def radical(self) -> tuple[tuple[Fraction, ...], ...]:
        """A basis of the exact rational kernel of the trace form, one vector
        per free column (``linalg.kernel_basis``); in characteristic zero
        this kernel is the radical of the algebra.  Requires an associative
        table."""
        if not self.is_associative():
            raise ValueError("table not associative")
        gram = self.trace_form()
        matrix = [[Fraction(int(v)) for v in row] for row in gram]
        return tuple(tuple(v) for v in linalg.kernel_basis(matrix))


def build_table(ring: ProjectiveClassRing) -> StructureTable:
    """Assemble the structure constants from the module product rules, one
    vectorised assignment per rule and per canonical term u.  For fixed a
    and b distinct u reach distinct a + b + u, so no target is written twice.
    The dtype is the first of int8, int16, int32, int64 that holds max c_u,
    and object (Python integers) for a multiplicity of 2**63 or more.
    """
    group = ring.group
    # A factor of order 1 moves no index: the columns of the others suffice.
    factors = [i for i, n in enumerate(group.orders) if n > 1]
    orders = [group.orders[i] for i in factors]
    radix = [math.prod(orders[k + 1:]) for k in range(len(orders))]
    elements = np.array(group.elements(), dtype=np.int64)[:, factors]
    s = len(elements)
    d = 2 * s
    # Index of a + b; the last factor varies fastest in elements().
    plus = ((elements[:, None, :] + elements[None, :, :]) % np.array(orders, dtype=np.int64)
            @ np.array(radix, dtype=np.int64))
    # The canonical terms, each by the index of its element u.
    canonical = [(sum(u[i] * r for i, r in zip(factors, radix)), cu)
                 for u, cu in ring.canonical.items()]
    # Each constant is 0, 1 or a single multiplicity: the smallest signed
    # dtype that holds the largest multiplicity holds them all exactly.
    top = max((cu for _, cu in canonical), default=1)
    dtype = next((t for t in _TABLE_DTYPES if top <= np.iinfo(t).max), object)
    constants = np.zeros((d, d, d), dtype=dtype)
    rows = np.arange(s)[:, None]
    cols = np.arange(s)[None, :]
    constants[rows, cols, plus] = 1                # simple * simple
    constants[rows, s + cols, s + plus] = 1        # simple * projective
    constants[s + rows, cols, s + plus] = 1        # projective * simple
    for u, cu in canonical:
        constants[s + rows, s + cols, s + plus[plus, u]] = cu
    return StructureTable(group, constants)


def matches_pair_ring(table: StructureTable, ring: ProjectiveClassRing) -> bool:
    """Compare every basis product of the table with the pair-ring product
    of the corresponding classes (4 s^2 comparisons).

    Each comparison is sparse: the nonzero coordinates of ``ring.mul(x, y)``
    against the nonzero entries of table row (x, y), which are read once per
    x with ``np.nonzero``.
    """
    group = ring.group
    if table.group != group:
        return False
    elements = group.elements()
    basis = [ring.simple_class(a) for a in elements] + [
        ring.projective_class(a) for a in elements
    ]
    for x, products in zip(basis, table.constants):
        ys, ks = np.nonzero(products)
        # tolist() gives Python ints for int64 and object constants alike.
        values = products[ys, ks].tolist()
        ks = ks.tolist()
        bounds = np.searchsorted(ys, np.arange(len(basis) + 1)).tolist()
        for y, lo, hi in zip(basis, bounds, bounds[1:]):
            if ring.mul(x, y).coordinates() != dict(zip(ks[lo:hi], values[lo:hi])):
                return False
    return True


def radical_matches_spectral(radical: Sequence[Sequence[Fraction]],
                             nilpotents: list[PairElement]) -> bool:
    """True iff the trace-form kernel basis ``radical`` and the closed-form
    nilradical basis span the same space, by one inclusion and a rank.

    ``radical`` must be a basis, as ``StructureTable.radical`` returns.
    Kernel vectors are rational; a transform-coordinate vector lies in their
    complex span iff each of its power-basis slices does, so the inclusion
    of the nilpotents' span reduces to rational solves.  With as many
    nilpotents as kernel vectors, the spans are then equal iff the
    nilpotents are independent over the cyclotomic field.
    """
    if len(radical) != len(nilpotents):
        return False
    if not nilpotents:
        return True
    group = nilpotents[0].group
    order = group.conductor
    s = group.size

    # Both bases live inside the projective component: the nilpotents by
    # construction, the kernel vectors necessarily (anything else means the
    # spans differ).  Work in those s coordinates only.
    kernel_rows = []
    for v in radical:
        if any(v[:s]):
            return False
        kernel_rows.append(list(v[s:]))
    reduced_k, pivots_k = linalg.rref(kernel_rows)
    nil_vectors = []
    for pair in nilpotents:
        if not pair.s_part.is_zero():
            return False
        vec = [
            v if isinstance(v, CycloNum) else CycloNum.rational(order, v)
            for v in pair.coefficient_vector()[s:]
        ]
        nil_vectors.append(vec)
        for piece in zip(*(entry.coeffs for entry in vec)):
            if not linalg.in_row_span(reduced_k, pivots_k, piece):
                return False
    return len(linalg.rref(nil_vectors)[1]) == len(nilpotents)


def certify_radical(table: StructureTable, nilpotents: list[PairElement]) -> tuple[int, bool]:
    """Radical dimension of an associative table and whether the nilpotents
    span the radical: ``(len(radical()), radical_matches_spectral(...))``.

    Sandwich certificate on the exact trace form T, in four steps:

    1. ``T n = 0`` for every integer power-basis slice of every nilpotent
       n, so span(nilpotents) lies in ker T;
    2. the nilpotents have rank m mod a prime p == 1 (mod N), so they are
       independent and dim ker T >= m;
    3. rank_p(T) <= rank_Q(T), so dim ker T <= 2s - rank_p(T);
    4. if the bounds meet at m the spans are equal and the answer is
       ``(m, True)``; if no prime makes them meet, or a nilpotent has a
       simple component or leaves ker T, the exact path decides.
    """
    if not table.is_associative():
        raise ValueError("table not associative")
    gram = table.trace_form()
    m = len(nilpotents)
    if all(n.s_part.is_zero() for n in nilpotents):
        order, s = table.group.conductor, table.group.size
        # Only the s projective coordinates: the simple ones are all zero.
        slices = linalg.integer_slices([n.coefficient_vector()[s:] for n in nilpotents], order)
        # T n as rows n T^T, one block of nilpotents at a time, each block in
        # its own exact dtype; the first nonzero block ends the certificate.
        if not any(linalg.exact_matmul(slices[i:i + _BLOCK_ROWS], gram[:, s:].T).any()
                   for i in range(0, m, _BLOCK_ROWS)):
            for p, w in linalg.modular_primes(order):
                lower = linalg.rank_mod_p(linalg.image_mod_p(slices, p, w), p)
                upper = table.dim - linalg.rank_mod_p(gram, p)
                if lower == m == upper:
                    return m, True
    radical = table.radical()
    return len(radical), radical_matches_spectral(radical, nilpotents)


def verify(report) -> tuple[dict, bool]:
    """The ``oracle`` block for a ``SpectralReport`` and whether it confirms
    the report: every check passes and the radical dimension is s - r.  The
    table is built from ``report.ring``.  A non-associative table gets
    radical dimension -1."""
    ring = report.ring
    table = build_table(ring)
    associative = table.is_associative()
    matches = matches_pair_ring(table, ring)
    if associative:
        radical_dim, spans_match = certify_radical(table, list(report.nilpotents))
    else:
        radical_dim, spans_match = -1, False
    block = {
        "associative": associative,
        "matches_pair_ring": matches,
        "radical_dim": radical_dim,
        "radical_matches_spectral": spans_match,
    }
    ok = (associative and matches and spans_match
          and radical_dim == report.group.size - report.support_size)
    return block, ok
