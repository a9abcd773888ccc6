"""Exact linear algebra over the rationals and over cyclotomic fields.

The elimination routines are duck-typed over any field whose elements
support +, -, *, / and truthiness testing (``Fraction`` and ``CycloNum``
both qualify).  There is no pivots-by-magnitude heuristic and no tolerance:
a pivot is any nonzero entry.

``distinct_numerators`` reads each distinct entry of a cyclotomic matrix
once, as integer power-basis numerators over one common denominator, so
that a certificate compares integers.  ``exact_matmul`` is the one product
of 2-D integer arrays, exact in the narrowest tier ``exact_dtype`` proves
for the entries multiplied (float32 BLAS when every partial sum is an
integer below 2**24, float64 BLAS below 2**53, Python integers otherwise),
read and cast ``BLOCK_ROWS`` inner indices at a time, never whole.

This module and ``oracle`` are the only ones that import numpy; the
analysis itself runs on Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .cyclotomics import common_numerators, euler_phi

__all__ = [
    "BLOCK_ROWS",
    "distinct_numerators",
    "exact_dtype",
    "exact_matmul",
    "in_row_span",
    "kernel_basis",
    "max_abs",
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


# -- exact integer products -----------------------------------------------------

# Inner indices per cast block in ``exact_matmul``, and rows per block in the
# oracle's gathers.  A float32 block of 32 rows of the (2s) x (2s)^2 table is
# 32 MB at s = 256, against 537 MB for the whole table cast at once.
BLOCK_ROWS = 32


def distinct_numerators(rows: Sequence[Sequence[object]],
                        order: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of rows over Q(zeta_order), as integers.

    Returns (nums, index): nums is a (K, phi(order)) integer array of the K
    distinct entries' power-basis numerators over one common denominator
    D > 0 (``common_numerators``), and index an (m, n) array of each entry's
    row in nums, so D times entry (i, j) is sum_k nums[index[i, j], k] zeta^k.
    Scaling every entry by D keeps every linear relation among them.  nums
    holds Python integers (object dtype).
    """
    slots: dict[object, int] = {}
    positions = [[slots.setdefault(entry, len(slots)) for entry in row] for row in rows]
    nums, _ = common_numerators(list(slots), order)
    index = np.array(positions, dtype=np.intp).reshape(len(rows), len(rows[0]) if rows else 0)
    return np.array(nums, dtype=object).reshape(-1, euler_phi(order)), index


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
    """Exact integer product a @ b of 2-D arrays, in the ``exact_dtype`` of
    the entries multiplied: float32 or float64 BLAS, returned as int64, or
    Python integers (object dtype).  (numpy's int64 matmul does not use BLAS.)

    Only the inner indices where some entry of a is nonzero are read, so the
    bound covers a, the rows of b at those indices and their count.  b is
    read ``BLOCK_ROWS`` rows at a time, for the bound and for the product,
    whose blocks are cast on their own and added, so no operand is cast
    whole.
    """
    read = np.flatnonzero(a.any(axis=0))
    blocks = [read[i:i + BLOCK_ROWS] for i in range(0, len(read), BLOCK_ROWS)]
    b_max = max((max_abs(b[block]) for block in blocks), default=0)
    dtype = exact_dtype(len(read), max_abs(a), b_max)
    product = np.zeros((a.shape[0], b.shape[1]), dtype=dtype)
    for block in blocks:
        product += a[:, block].astype(dtype) @ b[block].astype(dtype)
    return product if dtype == object else product.astype(np.int64)
