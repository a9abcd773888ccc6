"""Output checker for the pcring benchmark, independent of the package.

It recomputes ``s``, ``r``, ``support_F`` and ``decomposition`` of every
instance from its group and canonical element without importing pcring.
For each character b the integer exponent histogram
``h_b[k] = sum of c_a over a with <a, b> = k`` gives the transform of c at b
as ``sum_k h_b[k] zeta_N^k``; it vanishes exactly when the polynomial
``sum_k h_b[k] x^k`` is divisible by the N-th cyclotomic polynomial.  The
remainder is the linear map ``h -> h @ R`` with ``R[k]`` the integer
coefficients of ``x^k mod Phi_N``, all computed here with exact integers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from gen import Instance, Invocation, elements


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first."""
    poly = [-1] + [0] * (n - 1) + [1]            # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # Long division by a monic integer polynomial; the remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        q = num[i]
        quot[i - dd] = q
        if q:
            for j, dj in enumerate(den):
                num[i - dd + j] -= q * dj
    if any(num[:dd]):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


@functools.lru_cache(maxsize=None)
def power_residues(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds the coefficients of x^k mod Phi_n, for k < n."""
    phi_poly = cyclotomic_poly(n)
    phi = len(phi_poly) - 1
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple(row))
        top = row[-1]                              # x * row, then reduce x^phi
        row = [0] + row[:-1]
        if top:
            row = [r - top * p for r, p in zip(row, phi_poly)]
    return tuple(rows)


def expected_summary(inst: Instance) -> dict:
    """The report fields the checker recomputes on its own."""
    group = inst.group
    n = math.lcm(*group)
    labels = elements(group)
    weights = np.array([n // k for k in group], dtype=np.int64)
    exps = np.array([a for a, _ in inst.c], dtype=np.int64).reshape(len(inst.c), len(group))
    pairing = (np.array(labels, dtype=np.int64) * weights) @ exps.T % n   # [b, a]
    residues = power_residues(n)
    # int64 only while no dot product can reach 2**62; exact objects beyond.
    total = sum(k for _, k in inst.c)
    bound = total * max(abs(v) for row in residues for v in row)
    dtype = np.int64 if bound < 2**62 else object
    hist = np.zeros((len(labels), n), dtype=dtype)
    rows = np.arange(len(labels))
    for j, (_, k) in enumerate(inst.c):
        hist[rows, pairing[:, j]] += k           # one term per row: no repeats
    remainder = hist.dot(np.array(residues, dtype=dtype))
    support = [list(b) for b, rem in zip(labels, remainder) if any(rem)]
    s, r = len(labels), len(support)
    return {"s": s, "r": r, "support_F": support,
            "decomposition": f"C^{2 * r} x C[eps]^{s - r}"}


def report_errors(inst: Instance, report: object, inv: Invocation) -> list[str]:
    """Every way ``report`` falls short of a correct report of ``inst``."""
    if not isinstance(report, dict):
        return [f"{inst.name}: report is not an object"]
    if "error" in report:
        return [f"{inst.name}: error document {report['error']}"]
    errors = []
    expected = expected_summary(inst)
    for key, value in expected.items():
        if report.get(key) != value:
            errors.append(f"{inst.name}: {key} is {report.get(key)!r}, expected {value!r}")
    s, r = expected["s"], expected["r"]
    if inv.verify:
        block = report.get("oracle")
        if not isinstance(block, dict):
            errors.append(f"{inst.name}: oracle block missing")
        else:
            for key in ("associative", "matches_pair_ring", "radical_matches_spectral"):
                if block.get(key) is not True:
                    errors.append(f"{inst.name}: oracle {key} is {block.get(key)!r}")
            if block.get("radical_dim") != s - r:
                errors.append(f"{inst.name}: radical_dim {block.get('radical_dim')!r}, "
                              f"expected {s - r}")
    elif "oracle" in report:
        errors.append(f"{inst.name}: oracle block on an unverified run")
    if inst.golden and (report.get("golden") or {}).get("match") is not True:
        errors.append(f"{inst.name}: golden values do not match")
    if inv.emit:
        if len(report.get("idempotents", ())) != s + r:
            errors.append(f"{inst.name}: {len(report.get('idempotents', ()))} idempotents, "
                          f"expected {s + r}")
        if len(report.get("nilradical", ())) != s - r:
            errors.append(f"{inst.name}: {len(report.get('nilradical', ()))} nilpotents, "
                          f"expected {s - r}")
    return errors


def check_output(inv: Invocation, doc: object) -> list[list[str]]:
    """Per-instance error lists for the parsed stdout of one invocation."""
    if not inv.batch:
        return [report_errors(inv.instances[0], doc, inv)]
    entries = doc.get("batch") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or len(entries) != len(inv.instances):
        return [[f"{inst.name}: batch entry missing"] for inst in inv.instances]
    out = []
    for inst, entry in zip(inv.instances, entries):
        if not isinstance(entry, dict) or entry.get("file") != f"{inst.name}.json":
            out.append([f"{inst.name}: batch entry out of order"])
        else:
            out.append(report_errors(inst, entry.get("report"), inv))
    return out
