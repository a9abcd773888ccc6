"""Brute-force realization of the ring as a structure-constants algebra.

The table is assembled directly from the module-theoretic product rules on
the 2s basis classes (s simples followed by s projective covers):

    [S_a] * [S_b]   = [S_(a+b)]
    [S_a] * [P_b]   = [P_(a+b)]       (and symmetrically on the right)
    [P_a] * [P_b]   = sum_u c_u [P_(a+u+b)]

with c_u the composition multiplicities of the canonical element.  The table
is built by index arithmetic: element indices are mixed-radix numbers of the
exponent tuples, which ``StructureTable`` computes once from ``elements()``
and ``orders`` and never reads from the group's cached sum table, so a fault
there cannot hide.
The table is built without the pair-ring multiplication, and only the exact
fallback below does cyclotomic arithmetic, so agreement between the two is
a genuine cross-check: each of the 4 s^2 basis products ``ring.mul(x, y)``
is compared, by its nonzero coordinates, with the nonzero entries of table
row (x, y), associativity is verified by Light's test on a generating set,
and the radical is certified from the table.

``certify_radical`` checks the decomposition C^(2r) x C[eps]^(s-r) on the
table itself.  A few rows show S_0, the S_(e_i) and P_0 to act as the
product rules above say, and the row P_0 P_0 gives the transform lambda of
c.  Then s + r characters of the table bound the radical's dimension by
s - r from above, and the nilpotents, each an eigenvector n[x] =
n[0] zeta^(-<x,b>) of a character b with lambda(b) = 0, bound it by their
number m from below.  Every check compares integers; no prime, rank or
trace form is involved.  When m = s - r the nilpotents are a basis of the
radical.  Otherwise the exact path decides, by the characteristic-zero
trace form criterion (the radical is the kernel of the integer Gram matrix
T[i, j] = trace of left multiplication by e_i * e_j): a rational basis of
ker T (``StructureTable.radical``, a tuple of vectors), inclusion of the
nilpotents' span in it and the nilpotents' rank over Q(zeta_N)
(``radical_matches_spectral``), which also serve as the reference the
tests compare the certificate against.

``verify`` returns the ``oracle`` block of a ``SpectralReport`` and whether
it confirms the report: every check passes, the radical has dimension
s - r and the table's lambda equals ``fourier_c`` exactly.

The table stores its constants in the smallest signed integer dtype that
holds the largest multiplicity (int8 for every c_u below 128: 134 MB at the
size bound s = 256), and in Python integers (object dtype) from 2**63 on.
Every product of table entries, in Light's test, the trace form and the
certificate's transform, is one 2-D ``linalg.exact_matmul``, which picks the
exact tier (float32, float64 or Python integers) from the entries it
multiplies alone and casts them a block at a time, never whole.  Light's
test checks one (generator, row) pair per two products, with its
generating set and rows from the orbits of those S_(e_i) that the table
shows to permute the basis and to lie in the left nucleus,
(g x) y = g (x y).  Such a g maps each associator row
f_a(x, .) = (x a) . - x (a .) to f_a(g x, .) = g f_a(x, .), so one row x
per orbit suffices, and the qualifying S_(e_i) with one element of each
orbit that holds none of them generate.  For every table ``build_table``
makes that is the generators S_(e_i) and P_0 and the rows S_0 and P_0, at
2 (2s)^3 multiply-adds per generator and row, where all 2s rows cost
2 (2s)^4 per generator.

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
from .cyclotomics import CycloNum, common_numerators, cyclotomic_polynomial, euler_phi
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


class StructureTable:
    """Dense integer structure constants c_ijk with e_i * e_j = sum_k c_ijk e_k.

    The group's index arithmetic is computed once, at construction, as int64
    arrays: ``units``, the place value of each cyclic factor of order above
    1 (the index of its unit e_i: the index of a in ``elements()`` is
    sum_i a_i units[i], the last factor varying fastest, and a factor of
    order 1 moves no index); ``plus``, the s x s index of a + b; and
    ``pairing``, the s x s exponent <a, b> of zeta_N, as in
    ``AbelianGroup.pairing_exponent``.  ``is_associative`` and
    ``transform`` (lambda) are each computed once, on first use; constants
    are treated as frozen once any check has run.
    """

    def __init__(self, group: AbelianGroup, constants: np.ndarray):
        dim = 2 * group.size
        if constants.shape != (dim, dim, dim):
            raise ValueError(f"expected constants of shape {(dim, dim, dim)}")
        self.group = group
        self.constants = constants
        self.dim = dim
        self._associative: bool | None = None
        self._lambda: np.ndarray | None = None
        factors = [i for i, n in enumerate(group.orders) if n > 1]
        orders = np.array(group.orders, dtype=np.int64)[factors]
        self.units = np.array([math.prod(orders[k + 1:]) for k in range(len(factors))], np.int64)
        elements = np.array(group.elements(), dtype=np.int64)[:, factors]
        self.plus = (elements[:, None, :] + elements[None, :, :]) % orders @ self.units
        self.pairing = (elements * (group.conductor // orders)) @ elements.T % group.conductor

    def is_associative(self) -> bool:
        """Light's associativity test: (x a) y == x (a y) for every basis y,
        every a in a generating set G and one row x per orbit, with both
        sets from ``_light_sets``.

        The elements a satisfying the identity for all x, y form a
        subalgebra (the middle nucleus), so a generating set suffices.
        When no S_(e_i) qualifies, G and the rows are both the whole basis:
        that is the check over all 8 s^3 basis triples.

        The products are exact (``linalg.exact_matmul``), one (a, x) pair
        at a time.  The result is cached.
        """
        if self._associative is None:
            gens, rows = self._light_sets()
            self._associative = all(self._associates(a, x) for a in gens for x in rows)
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
        perms = {g: perm.tolist() for g in self.units.tolist()
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

    def transform(self) -> np.ndarray:
        """lambda(b) = sum_u c_u zeta^<u,b> for every b, from the table's row
        P_0 P_0, as an s x phi array of integer power-basis numerators,
        computed once.  Each nonzero c_u is scattered into an s x N
        histogram of Python integers at (b, <u,b>), and the histogram times
        the N x phi table of x^k mod Phi_N gives lambda."""
        if self._lambda is None:
            s, order = self.group.size, self.group.conductor
            row = self.constants[s, s, s:]
            hist = np.zeros((s, order), dtype=object)
            terms = np.flatnonzero(row)
            np.add.at(hist, (np.arange(s), self.pairing[terms]), row[terms, None])
            residues = np.array(_rotations([1] + [0] * (euler_phi(order) - 1), order),
                                dtype=object)
            self._lambda = linalg.exact_matmul(hist, residues)
        return self._lambda

    def _associates(self, a: int, x: int) -> bool:
        """(x a) y == x (a y) for every basis y.

        x (a y) = c[a] @ c[x], (y, m) times (m, l).  (x a) y is the row
        c[x, a, :] times c viewed as m -> (y, l), which reads only the table
        rows m where c[x, a, m] is nonzero.
        """
        d = self.dim
        c = self.constants
        left = linalg.exact_matmul(c[x, a][None], c.reshape(d, d * d))
        return np.array_equal(left.reshape(d, d), linalg.exact_matmul(c[a], c[x]))

    def _nucleus_permutation(self, g: int) -> np.ndarray | None:
        """pi with g e_u = e_pi(u), when c[g] is a permutation matrix with
        unit entries and g lies in the left nucleus; None otherwise.

        (g e_u) e_v = e_pi(u) e_v and g (e_u e_v) = sum_l c[u, v, l] e_pi(l)
        agree for all u, v iff c[pi(u), v, pi(l)] == c[u, v, l], which is
        checked as a gather over ``linalg.BLOCK_ROWS`` rows u at a time.
        """
        c = self.constants
        unit = c[g] == 1
        if not ((unit | (c[g] == 0)).all() and (unit.sum(axis=0) == 1).all()
                and (unit.sum(axis=1) == 1).all()):
            return None
        pi = unit.argmax(axis=1)
        for u in range(0, self.dim, linalg.BLOCK_ROWS):
            block = slice(u, u + linalg.BLOCK_ROWS)
            if not np.array_equal(np.take(c[pi[block]], pi, axis=2), c[block]):
                return None
        return pi

    def trace_form(self) -> np.ndarray:
        """Gram matrix T[i,j] = trace of left multiplication by e_i * e_j =
        sum_k c_ijk t_k, with t_k the trace of left multiplication by e_k.

        Both are ``linalg.exact_matmul`` products: t from the diagonals, T
        from the table viewed as (i, j) -> k and t.  int64 on the float
        tiers, Python integers otherwise.
        """
        d = self.dim
        c = self.constants
        traces = linalg.exact_matmul(c.diagonal(axis1=1, axis2=2), np.ones((d, 1), np.int8))
        return linalg.exact_matmul(c.reshape(d * d, d), traces).reshape(d, d)

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
    vectorised assignment per rule and per canonical term u, into a zero
    table through its own ``plus``.  For fixed a and b distinct u reach
    distinct a + b + u, so no target is written twice.
    The dtype is the first of int8, int16, int32, int64 that holds max c_u,
    and object (Python integers) for a multiplicity of 2**63 or more.
    """
    group = ring.group
    s = group.size
    d = 2 * s
    # c_u by the index of u.
    canonical = [ring.canonical.coefficient(u) for u in group.elements()]
    # Each constant is 0, 1 or a single multiplicity: the smallest signed
    # dtype that holds the largest multiplicity holds them all exactly.
    top = max(canonical)
    dtype = next((t for t in _TABLE_DTYPES if top <= np.iinfo(t).max), object)
    table = StructureTable(group, np.zeros((d, d, d), dtype=dtype))
    constants, plus = table.constants, table.plus
    rows = np.arange(s)[:, None]
    cols = np.arange(s)[None, :]
    constants[rows, cols, plus] = 1                # simple * simple
    constants[rows, s + cols, s + plus] = 1        # simple * projective
    constants[s + rows, cols, s + plus] = 1        # projective * simple
    for u, cu in enumerate(canonical):
        if cu:
            constants[s + rows, s + cols, s + plus[plus, u]] = cu
    return table


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

    ``(m, True)`` for m nilpotents when the table shows the paper's
    decomposition with them (``_decomposition_holds``); otherwise the exact
    path decides.
    """
    if not table.is_associative():
        raise ValueError("table not associative")
    if _decomposition_holds(table, nilpotents):
        return len(nilpotents), True
    radical = table.radical()
    return len(radical), radical_matches_spectral(radical, nilpotents)


def _decomposition_holds(table: StructureTable, nilpotents: list[PairElement]) -> bool:
    """True when the associative table A shows the nilpotents to be a basis
    of its radical, by the decomposition C^(2r) x C[eps]^(s-r):

    1. Structure rows: S_0 is a left unit; each S_(e_i), for a factor of
       order above 1, sends S_a to S_(a+e_i) and P_a to P_(a+e_i);
       S_a P_0 = P_a = P_0 S_a for every a; and P_0 P_0 = sum_u c_u P_u
       has no simple part.  With associativity, S_a is a product of
       S_(e_i) and S_0 and P_a = S_a P_0, so S_(e_i) and P_0 generate A.
       S_0 is then a right unit too: x S_0 = x holds for x = S_0, S_(e_i)
       and P_0 by these rows, and so for their products.
    2. ``StructureTable.transform``: lambda(b) = sum_u c_u zeta^<u,b> for
       every b, from A's own row P_0 P_0.  r counts the b with
       lambda(b) != 0.
    3. chi_b on simples and 0 on projectives, for every b, and chi_b on
       simples and lambda(b) chi_b on projectives, for every b with
       lambda(b) != 0, are s + r distinct linear maps A -> C.  By step 1
       and associativity (P_0 P_a = S_a (P_0 P_0)) each is multiplicative
       on a generator times any basis element, so each is an algebra
       homomorphism.  They vanish on the
       radical and are independent: dim rad <= s - r.
    4. The j-th nilpotent n_j, paired with the j-th b_j with
       lambda(b_j) = 0 (the order of ``SpectralReport.nilpotents``), has no
       simple part, n_j[0] != 0 and n_j[x] = n_j[0] zeta^(-<x,b_j>) for
       every x: each distinct n_j[0] is rotated once through all N powers
       of zeta, each rotation is mapped to its row among the nilpotents'
       distinct values (-1 where no entry has that value), and the row
       reached by the power -<x,b_j> must be the row of n_j[x].  Then
       S_a n_j = chi_(b_j)(a) n_j and P_0 n_j = lambda(b_j) n_j = 0, so
       A n_j is a square-zero left ideal, inside the radical.
       Eigenvectors of distinct characters are independent: dim rad >= m.

    Both bounds meet when m = s - r.  Every check compares integers: the
    nilpotents' values are read once each, as power-basis numerators over
    one common denominator (``linalg.distinct_numerators``), and such
    numerators are unique, so two values are equal iff their rows are, and
    step 4 compares row indices.  The rotations (``_rotations``) are in
    Python integers, so no bound is needed.
    """
    s, order = table.group.size, table.group.conductor
    c, plus = table.constants, table.plus
    eye = np.eye(table.dim, dtype=np.int8)
    if not (np.array_equal(c[0], eye)
            and all(np.array_equal(c[g], eye[np.concatenate([plus[g], s + plus[g]])])
                    for g in table.units)
            and np.array_equal(c[:s, s], eye[s:]) and np.array_equal(c[s, :s], eye[s:])
            and not c[s, s, :s].any()):
        return False

    vanishing = np.flatnonzero(~(table.transform() != 0).any(axis=1))
    m = len(nilpotents)
    if m != len(vanishing) or not all(n.s_part.is_zero() for n in nilpotents):
        return False

    nums, index = linalg.distinct_numerators([n.coefficient_vector()[s:] for n in nilpotents],
                                             order)
    rows = {v: i for i, v in enumerate(map(tuple, nums.tolist()))}
    heads, head = np.unique(index[:, :1], return_inverse=True)
    turned = np.array([[rows.get(v, -1) for v in _rotations(nums[h].tolist(), order)]
                       for h in heads], dtype=np.intp).reshape(len(heads), order)
    powers = -table.pairing[vanishing] % order
    # Without nilpotents there is nothing to compare (``index`` is then 0 x 0).
    return not m or (nums[heads].any(axis=1).all()
                     and np.array_equal(turned[head.reshape(-1, 1), powers], index))


def _rotations(row: list[int], order: int) -> list[tuple[int, ...]]:
    """row zeta^k for every k < order, for one row of power-basis
    numerators, in Python integers: each step shifts by x and folds the
    coefficient of x^phi back, as x^phi - Phi_order, of degree below phi.
    ``cyclotomics`` rotates the same way for the spectral side; this copy
    keeps the certificate's transform independent of it."""
    fold = [-a for a in cyclotomic_polynomial(order)[:-1]]
    out = [tuple(row)]
    for _ in range(1, order):
        *low, top = out[-1]
        out.append(tuple(v + top * f for v, f in zip([0] + low, fold)))
    return out


def verify(report) -> tuple[dict, bool]:
    """The ``oracle`` block for a ``SpectralReport`` and whether it confirms
    the report: every check passes, the radical dimension is s - r and the
    table's lambda equals ``report.values`` exactly, which certifies
    ``fourier_c``, the support and r.  The table is built from
    ``report.ring``.  A non-associative table gets radical dimension -1."""
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
    nums, den = common_numerators(report.values, report.group.conductor)
    ok = (associative and matches and spans_match
          and radical_dim == report.group.size - report.support_size
          and [[v * den for v in row] for row in table.transform().tolist()] == nums)
    return block, ok
