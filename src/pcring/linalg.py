"""Exact linear algebra over the rationals and over cyclotomic fields.

The elimination routines are duck-typed over any field whose elements
support +, -, *, / and truthiness testing (``Fraction`` and ``CycloNum``
both qualify).  There is no pivots-by-magnitude heuristic and no tolerance:
a pivot is any nonzero entry.

The modular routines map a cyclotomic matrix to GF(p) for a prime
p == 1 (mod N), where zeta_N goes to an element of order N in GF(p)*.  The
image is taken from integer power-basis slices (``integer_slices``), never
from fractions.  Rank can only drop under a homomorphism, so full rank of the
image certifies full rank exactly, and ``rank_mod_p`` bounds the rational
rank of an integer matrix from below.  ``exact_matmul`` multiplies integer
matrices exactly in the narrowest tier ``exact_dtype`` proves exact: float32
BLAS when every partial sum is an integer below 2**24, float64 BLAS below
2**53, Python integers otherwise.

This module and ``oracle`` are the only ones that import numpy; the
analysis itself runs on Python integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .cyclotomics import _integer_coeffs, euler_phi

__all__ = [
    "exact_dtype",
    "exact_matmul",
    "image_mod_p",
    "in_row_span",
    "integer_slices",
    "kernel_basis",
    "max_abs",
    "modular_primes",
    "rank_mod_p",
    "rref",
]


def rref(rows: Sequence[Sequence[object]]) -> tuple[list[list[object]], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    reduced: list[list[object]] = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        inv = 1 / work[row][col]  # one field inversion per pivot
        work[row] = [v * inv for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    reduced = work[:row]
    return reduced, pivots


def in_row_span(reduced: list[list[object]], pivots: list[int], vector: Sequence[object]) -> bool:
    """Membership of ``vector`` in the row span of an ``rref`` result."""
    residual = list(vector)
    for row, col in zip(reduced, pivots):
        factor = residual[col]
        if factor:
            residual = [a - factor * b for a, b in zip(residual, row)]
    return not any(residual)


def kernel_basis(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel {x : M x = 0} of a rational matrix.

    Deterministic: one basis vector per free column, unit in that column.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


# -- modular rank certificates and exact integer products -----------------------

# Primes a modular certificate tries before the exact path decides.
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
    primes stay below 1.02 * 10**6, far inside the p < 2**31 that
    ``image_mod_p`` and ``rank_mod_p`` require.
    """
    p = 1_000_003
    p += (-(p - 1)) % order  # first candidate with p == 1 mod order
    for _ in range(PRIME_ATTEMPTS):
        while not _is_prime(p):
            p += order
        yield p, _unity_root_mod(p, order)
        p += order


def integer_slices(rows: Sequence[Sequence[object]], order: int) -> np.ndarray:
    """Power-basis slices of rows over Q(zeta_order), cleared of denominators.

    Returns an integer array S of shape (m, phi(order), n) such that D_i times
    row i equals sum_k S[i, k] zeta^k, where D_i > 0 is the lcm of the
    denominators in row i.  Scaling a row by D_i changes neither its rank
    nor whether it lies in a kernel.  int64 when every entry fits, Python
    integers otherwise.

    Each distinct entry value is converted to its numerators once; the
    slices index those numerators and scale them by D_i / den in one
    broadcast.
    """
    phi = euler_phi(order)
    if not rows:
        return np.zeros((0, phi, 0), dtype=np.int64)
    slots: dict[object, int] = {}
    positions = [[slots.setdefault(entry, len(slots)) for entry in row] for row in rows]
    parts = [_integer_coeffs(entry, order, phi) for entry in slots]
    dens = [den for _, den in parts]
    sizes = [max(map(abs, nums)) for nums, _ in parts]
    commons = []
    top = 0  # bounds every row lcm and every output entry
    for row in positions:
        used = set(row)
        common = math.lcm(*(dens[k] for k in used))
        commons.append(common)
        top = max(top, common, *(common // dens[k] * sizes[k] for k in used))
    dtype = np.int64 if top < 2**63 else object
    index = np.array(positions, dtype=np.intp)
    scale = np.array(commons, dtype=dtype)[:, None] // np.array(dens, dtype=dtype)[index]
    slices = np.array([nums for nums, _ in parts], dtype=dtype).reshape(-1, phi)[index]
    slices *= scale[:, :, None]
    return slices.transpose(0, 2, 1)


def image_mod_p(slices: np.ndarray, p: int, w: int) -> np.ndarray:
    """Image mod p (a prime below 2**31) of the rows ``integer_slices``
    describes, under zeta |-> w.  One power-basis slice is reduced at a
    time, so no residue copy of the whole array is made."""
    image = np.zeros((slices.shape[0], slices.shape[2]), dtype=np.int64)
    for k in range(slices.shape[1]):
        residues = (slices[:, k, :] % p).astype(np.int64, copy=False)
        image = (image + residues * pow(w, k, p)) % p
    return image


def max_abs(a: np.ndarray) -> int:
    """max |a| as a Python integer (0 for an empty array), taken from max and
    min without an |a| temporary; object entries work too."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def exact_dtype(inner: int, a_max: int, b_max: int) -> np.dtype:
    """The narrowest dtype in which a @ b is exact for integer operands with
    inner dimension ``inner``, max|a| <= a_max and max|b| <= b_max.

    With bound = max(a_max, b_max, inner * a_max * b_max) every operand and
    every partial sum, in whatever order BLAS adds them, is an integer of
    magnitude at most bound: float32 represents all of them when
    bound < 2**24, float64 when bound < 2**53.  Otherwise object dtype, whose
    products are Python integers.
    """
    bound = max(a_max, b_max, inner * a_max * b_max)
    if bound < 2**24:
        return np.dtype(np.float32)
    if bound < 2**53:
        return np.dtype(np.float64)
    return np.dtype(object)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product a @ b in the ``exact_dtype`` of the operands:
    float32 or float64 BLAS, cast back to int64, or Python integers (object
    dtype).  (numpy's int64 matmul does not use BLAS.)
    """
    dtype = exact_dtype(a.shape[-1], max_abs(a), max_abs(b))
    product = a.astype(dtype) @ b.astype(dtype)
    return product if dtype == object else product.astype(np.int64)


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

