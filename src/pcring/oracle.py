"""Brute-force realization of the ring as a structure-constants algebra.

The table is assembled directly from the module-theoretic product rules on
the 2s basis classes (s simples followed by s projective covers):

    [S_a] * [S_b]   = [S_(a+b)]
    [S_a] * [P_b]   = [P_(a+b)]       (and symmetrically on the right)
    [P_a] * [P_b]   = sum_u c_u [P_(a+u+b)]

with c_u the composition multiplicities of the canonical element.  Nothing
here touches the pair-ring multiplication or any cyclotomic arithmetic, so
agreement between the two is a genuine cross-check: products are compared
entry by entry, associativity is verified on all basis triples, and the
radical is pinned down through the characteristic-zero trace form
criterion (the radical is the kernel of the exact integer Gram matrix
T[i, j] = trace of left multiplication by e_i * e_j).

``certify_radical`` checks the closed-form nilpotents against that kernel
with a sandwich certificate: exact integer products show T n = 0 for every
power-basis slice of every nilpotent, their rank modulo a prime
p == 1 (mod N) shows dim ker T >= m, and rank_p(T) <= rank_Q(T) shows
dim ker T <= 2s - rank_p(T).  When the two bounds meet at m the nilpotents
span the radical.  Otherwise the exact path decides: the rational kernel of
T (``StructureTable.radical``) and mutual span membership
(``radical_matches_spectral``), which also serve as the reference the tests
compare the certificate against.

Constants are int64 unless a multiplicity leaves int64, in which case they
are Python integers.  The associativity scan runs on integer-valued float64
tensors; a bound check guarantees every intermediate stays below 2**53,
where float64 arithmetic on integers is exact, and falls back to
arbitrary-precision loops otherwise.  The trace form uses the same kind of
bound to choose between int64 and Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .cyclotomics import CycloNum, euler_phi
from .groups import AbelianGroup
from .pair_ring import PairElement, ProjectiveClassRing

__all__ = [
    "RadicalBasis",
    "StructureTable",
    "build_table",
    "certify_radical",
    "matches_pair_ring",
    "radical_matches_spectral",
]


@dataclass(frozen=True)
class RadicalBasis:
    dimension: int
    vectors: tuple[tuple[Fraction, ...], ...]


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

    def labels(self) -> list[tuple[str, tuple[int, ...]]]:
        elements = self.group.elements()
        return [("simple", a) for a in elements] + [("projective", a) for a in elements]

    def product(self, i: int, j: int) -> np.ndarray:
        return self.constants[i, j]

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.constants, self.constants.transpose(1, 0, 2)))

    def is_associative(self) -> bool:
        """Check (e_i e_j) e_k == e_i (e_j e_k) for all 8 s^3 basis triples.

        The result is cached; constants are treated as frozen once any
        check has run.
        """
        if self._associative is None:
            self._associative = self._scan_associativity()
        return self._associative

    def _scan_associativity(self) -> bool:
        c = self.constants
        d = self.dim
        bound = d * int(c.max()) ** 2
        if bound >= 2**53:
            return self._is_associative_exact()
        cf = c.astype(np.float64)
        flat_right = cf.reshape(d, d * d)    # m -> (k, l)
        flat_left = cf.reshape(d * d, d)     # (j, k) -> m
        for i in range(d):
            left = (cf[i] @ flat_right).reshape(d, d, d)       # sum_m c[i,j,m] c[m,k,l]
            right = (flat_left @ cf[i]).reshape(d, d, d)       # sum_m c[j,k,m] c[i,m,l]
            if not np.array_equal(left, right):
                return False
        return True

    def _is_associative_exact(self) -> bool:
        c = self.constants.tolist()
        d = self.dim
        for i in range(d):
            for j in range(d):
                row_ij = c[i][j]
                for k in range(d):
                    left = [0] * d
                    for m in range(d):
                        cm = row_ij[m]
                        if cm:
                            rm = c[m][k]
                            for l in range(d):
                                left[l] += cm * rm[l]
                    right = [0] * d
                    for m in range(d):
                        cm = c[j][k][m]
                        if cm:
                            rm = c[i][m]
                            for l in range(d):
                                right[l] += cm * rm[l]
                    if left != right:
                        return False
        return True

    def trace_form(self) -> np.ndarray:
        """Gram matrix T[i,j] = trace of left multiplication by e_i * e_j,
        computed exactly (int64 under a proven bound, Python ints otherwise)."""
        d = self.dim
        diagonals = self.constants.diagonal(axis1=1, axis2=2)
        traces = linalg.exact_matmul(diagonals, np.ones(d, dtype=np.int64))
        return linalg.exact_matmul(self.constants.reshape(d * d, d), traces).reshape(d, d)

    def radical(self) -> RadicalBasis:
        """Exact rational kernel of the trace form; in characteristic zero
        this is the radical of the algebra.  Requires an associative table."""
        if not self.is_associative():
            raise ValueError("table not associative")
        gram = self.trace_form()
        matrix = [[Fraction(int(v)) for v in row] for row in gram]
        vectors = linalg.kernel_basis(matrix)
        return RadicalBasis(
            dimension=len(vectors), vectors=tuple(tuple(v) for v in vectors)
        )


def build_table(ring: ProjectiveClassRing) -> StructureTable:
    """Assemble the structure constants from the module product rules."""
    group = ring.group
    s = group.size
    d = 2 * s
    elements = group.elements()
    idx = {a: i for i, a in enumerate(elements)}
    canonical = list(ring.canonical.items())
    # Each constant is 1 or a single multiplicity; keep them exact.
    fits = all(cu < 2**63 for _, cu in canonical)
    constants = np.zeros((d, d, d), dtype=np.int64 if fits else object)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            k = idx[group.mul(a, b)]
            constants[i, j, k] = 1                # simple * simple
            constants[i, s + j, s + k] = 1        # simple * projective
            constants[s + i, j, s + k] = 1        # projective * simple
            ab = group.mul(a, b)
            for u, cu in canonical:
                constants[s + i, s + j, s + idx[group.mul(ab, u)]] += cu
    return StructureTable(group, constants)


def matches_pair_ring(table: StructureTable, ring: ProjectiveClassRing) -> bool:
    """Compare every basis product of the table with the pair-ring product
    of the corresponding classes (4 s^2 comparisons)."""
    group = ring.group
    if table.group != group:
        return False
    elements = group.elements()
    basis = [ring.simple_class(a) for a in elements] + [
        ring.projective_class(a) for a in elements
    ]
    for x, products in zip(basis, table.constants):
        # tolist() gives Python ints for int64 and object constants alike.
        for y, constants in zip(basis, products.tolist()):
            if ring.mul(x, y).coefficient_vector() != constants:
                return False
    return True


def radical_matches_spectral(radical: RadicalBasis, nilpotents: list[PairElement]) -> bool:
    """True iff the trace-form kernel and the closed-form nilradical basis
    span the same space, established by mutual membership.

    Kernel vectors are rational; a transform-coordinate vector lies in their
    complex span iff each of its power-basis slices does, so one direction
    reduces to rational solves.  The other direction solves each kernel
    vector against the nilpotent basis over the cyclotomic field.
    """
    if radical.dimension != len(nilpotents):
        return False
    if not nilpotents:
        return True
    group = nilpotents[0].group
    order = group.conductor
    phi = euler_phi(order)
    s = group.size

    # Both bases live inside the projective component: the nilpotents by
    # construction, the kernel vectors necessarily (anything else means the
    # spans differ).  Work in those s coordinates only.
    kernel_rows = []
    for v in radical.vectors:
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
        for k in range(phi):
            piece = [entry.coeffs[k] for entry in vec]
            if not linalg.in_row_span(reduced_k, pivots_k, piece):
                return False

    reduced_n, pivots_n = linalg.rref(nil_vectors)
    for row in kernel_rows:
        embedded = [CycloNum.rational(order, f) for f in row]
        if not linalg.in_row_span(reduced_n, pivots_n, embedded):
            return False
    return True


def certify_radical(table: StructureTable, nilpotents: list[PairElement]) -> tuple[int, bool]:
    """Radical dimension of an associative table and whether the nilpotents
    span the radical: ``(radical().dimension, radical_matches_spectral(...))``.

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
        order = table.group.conductor
        slices = linalg.integer_slices([n.coefficient_vector() for n in nilpotents], order)
        products = linalg.exact_matmul(gram, slices.reshape(-1, table.dim).T)
        if not products.any():
            for p, w in linalg.modular_primes(order, attempts=3):
                lower = linalg.rank_mod_p(linalg.image_mod_p(slices, p, w), p)
                upper = table.dim - linalg.rank_mod_p(gram, p)
                if lower == m == upper:
                    return m, True
    radical = table.radical()
    return radical.dimension, radical_matches_spectral(radical, nilpotents)
