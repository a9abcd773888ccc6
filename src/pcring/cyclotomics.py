"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A value is a residue modulo the N-th cyclotomic polynomial Phi_N, stored in
the power basis 1, zeta, ..., zeta^(phi(N)-1) with rational coefficients.
Phi_N is the minimal polynomial of zeta_N over Q, so the reduced coefficient
vector is unique: equality and zero-testing are exact componentwise checks
with no tolerance anywhere.  This matters because the whole analysis hinges
on deciding whether character sums vanish; floating point would misclassify
them.

Internally a value keeps an integer numerator vector and a single positive
denominator with gcd(den, *nums) == 1, and all arithmetic stays on those
integers.  Reduction modulo Phi_N happens here only, in two ways: ``_fold``
reads each power past phi from the nonzero coordinates of the residues of
zeta^k, k < N, for input, products, the conjugates behind the inverse and the
group transform; and one shift-and-fold pass gives value * zeta^k for all
k < N, the residue table itself when value = 1.
``fractions.Fraction`` objects appear only at the API boundary: constructor
input, ``coeffs``, ``as_fraction`` and rational operands.

One conductor is fixed per analysis session: arithmetic between values of
different orders is rejected rather than coerced.  Plain ``int`` and
``Fraction`` operands are embedded into the operand's field on the fly.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence, Union

__all__ = [
    "CycloNum",
    "common_numerators",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
]

Rational = Union[int, Fraction]


def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den for integer polynomials with den monic and dividing num."""
    rem = list(num)
    dd = len(den) - 1
    q = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        coef = rem[k]
        if coef:
            q[k - dd] = coef
            for j in range(dd + 1):
                rem[k - dd + j] -= coef * den[j]
    if any(rem):
        raise AssertionError("cyclotomic division left a remainder")
    return q


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, leading coefficient 1.

    Computed by dividing x^n - 1 by the product of Phi_d over the proper
    divisors d of n; every intermediate division is exact over the integers.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by positive integers")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _power_residues(order: int) -> tuple[tuple[int, ...], ...]:
    # x^k mod Phi_order for every k in 0 .. order-1.
    return _rotations(order, [1] + [0] * (euler_phi(order) - 1))


def _rotations(order: int, nums: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    # x^k * nums mod Phi_order for k = 0 .. order-1, nums reduced: shift by x
    # and fold the top coefficient back with x^phi = -(lower part of Phi_order).
    phi = len(nums)
    fold = [-c for c in cyclotomic_polynomial(order)[:phi]]
    rows: list[tuple[int, ...]] = []
    cur = list(nums)
    for _ in range(order):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] += top * fold[i]
    return tuple(rows)


class CycloNum:
    """An element of Q(zeta_N), reduced modulo Phi_N.

    Instances are immutable; arithmetic returns fresh values.  Mixing two
    different orders raises, mixing with ``int`` or ``Fraction`` embeds the
    rational into the field.
    """

    __slots__ = ("_order", "_nums", "_den")

    def __init__(self, order: int, coeffs: Iterable[Rational] = ()):
        if order < 1:
            raise ValueError("order must be a positive integer")
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = _fold(order, [f.numerator * (den // f.denominator) for f in fracs])
        self._order = order
        self._nums, self._den = _normalized(nums, den)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, order: int, nums: Sequence[int], den: int) -> "CycloNum":
        self = object.__new__(cls)
        self._order = order
        self._nums, self._den = _normalized(nums, den)
        return self

    @classmethod
    def rational(cls, order: int, value: Rational) -> "CycloNum":
        """Embed a rational number into Q(zeta_order)."""
        f = Fraction(value)
        phi = euler_phi(order)
        return cls._raw(order, [f.numerator] + [0] * (phi - 1), f.denominator)

    @classmethod
    def zero(cls, order: int) -> "CycloNum":
        return cls.rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycloNum":
        return cls.rational(order, 1)

    # -- inspection ----------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as reduced fractions, length phi(order)."""
        d = self._den
        return tuple(Fraction(n, d) for n in self._nums)

    def integer_coeffs(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators and the positive common denominator of the
        power-basis coordinates: value = sum_k nums[k] zeta^k / den."""
        return self._nums, self._den

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_rational(self) -> bool:
        # Every numerator past the constant term is zero, counted in place:
        # a slice would copy up to phi - 1 of them first.
        nums = self._nums
        return nums.count(0) == len(nums) - (nums[0] != 0)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._nums[0], self._den)

    def approx(self) -> complex:
        """Floating-point image under zeta |-> exp(2*pi*i/order).

        Display convenience only; never used to decide anything.  A part
        whose magnitude is beyond the float range comes back as +-inf.
        """
        # The numerators are scaled by 2^-e and den by 2^-f to stay below
        # 2^960, so a sum of phi terms is finite, and 2^(e-f) is put back
        # part by part.  Power-of-two scaling is exact: a value whose plain
        # float sum does not overflow renders the same either way.
        z = cmath.exp(2j * cmath.pi / self._order)
        e = max(0, max(map(abs, self._nums)).bit_length() - 960)
        f = max(0, self._den.bit_length() - 960)
        acc = 0j
        for k, n in enumerate(self._nums):
            if n:
                acc += n / (1 << e) * z**k
        acc /= self._den / (1 << f)
        parts = []
        for x in (acc.real, acc.imag):
            try:
                parts.append(math.ldexp(x, e - f))
            except OverflowError:
                parts.append(math.copysign(math.inf, x))
        return complex(*parts)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: object) -> "CycloNum | None":
        if isinstance(other, CycloNum):
            if other._order != self._order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self._order} vs {other._order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self._order, other)
        return None

    def _plus(self, rhs: "CycloNum", sign: int) -> "CycloNum":
        # self + sign * rhs over the least common denominator, sign = +-1.
        d1, d2 = self._den, rhs._den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        nums = [a * m1 + b * m2 for a, b in zip(self._nums, rhs._nums)]
        return CycloNum._raw(self._order, nums, d1 * m1)

    def __add__(self, other: object) -> "CycloNum":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self._plus(rhs, 1)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum._raw(self._order, [-n for n in self._nums], self._den)

    def __sub__(self, other: object) -> "CycloNum":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self._plus(rhs, -1)

    def __rsub__(self, other: object) -> "CycloNum":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs._plus(self, -1)

    def __mul__(self, other: object) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            nums = [n * num for n in self._nums]
            return CycloNum._raw(self._order, nums, self._den * other.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other._order != self._order:
            raise ValueError(
                f"cyclotomic order mismatch: {self._order} vs {other._order}"
            )
        a, b = self._nums, other._nums
        conv = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycloNum._raw(self._order, _fold(self._order, conv), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse through the field norm.

        The conjugates sigma_k (zeta |-> zeta^k, k a unit mod N) fix exactly
        Q, so for P = prod_{k != 1} sigma_k(self) the product self * P is the
        norm, a nonzero rational, and self^-1 = P / norm.  P is built on the
        integer numerators: sigma_k sends zeta^j to zeta^(j*k mod N), valid
        since zeta^N = 1, and the conjugates are multiplied with ``__mul__``.
        That is phi(N) - 1 products of length-phi vectors, so an inverse
        costs O(phi^3) integer operations.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return CycloNum.rational(self._order, 1 / self.as_fraction())
        order = self._order
        conjugates = CycloNum.one(order)
        for k in range(2, order):
            if math.gcd(k, order) == 1:
                poly = [0] * order
                for j, n in enumerate(self._nums):
                    poly[j * k % order] = n
                conjugates = conjugates * CycloNum._raw(order, _fold(order, poly), 1)
        norm = self * conjugates
        # Phi_N is irreducible and self is a nonzero residue, so its norm is a
        # nonzero rational.
        if not norm.is_rational():
            raise AssertionError("the norm of a cyclotomic number is not rational")
        return conjugates * (1 / norm.as_fraction())

    def root_multiples(self) -> list["CycloNum"]:
        """``self * zeta^k`` for k = 0 .. order-1, from one shift-and-fold
        pass over the numerators: O(order * phi) integer operations."""
        return [CycloNum._raw(self._order, nums, self._den)
                for nums in _rotations(self._order, self._nums)]

    def __truediv__(self, other: object) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return self * (1 / f)
        if isinstance(other, CycloNum):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other: object) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self._order, other) * self.inverse()
        return NotImplemented

    def __pow__(self, exponent: int) -> "CycloNum":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        e = abs(exponent)
        acc = CycloNum.one(self._order)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    # -- comparisons, hashing, rendering --------------------------------------

    def __bool__(self) -> bool:
        return any(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloNum):
            return (
                self._order == other._order
                and self._den == other._den
                and self._nums == other._nums
            )
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return (
                self.is_rational()
                and self._den == f.denominator
                and self._nums[0] == f.numerator
            )
        return NotImplemented

    def __hash__(self) -> int:
        # A rational value equals the int or Fraction it embeds, so it hashes
        # like that number.
        if self.is_rational():
            return hash(Fraction(self._nums[0], self._den))
        return hash((self._order, self._nums, self._den))

    def __repr__(self) -> str:
        return f"CycloNum({self._order}, {self!s})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, f in enumerate(self.coeffs):
            if f == 0:
                continue
            mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if k == 0:
                parts.append(str(f))
            elif abs(f) == 1:
                parts.append(mono if f > 0 else f"-{mono}")
            else:
                parts.append(f"{f}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self, memo: dict | None = None) -> dict:
        """Power-basis serialization with a decimal rendering tagged
        display_only, which nothing reads back.

        With a ``memo`` (a dict the caller owns, one per document), equal
        values render once: the dict is built on the first call and every
        later call with an equal value returns that same object.  A returned
        dict may then be shared by many places in the document, so it must
        not be modified.
        """
        if memo is not None:
            # Keyed by the canonical form, which equal values share: a tuple
            # hashes and compares faster than a CycloNum.
            key = (self._order, self._nums, self._den)
            doc = memo.get(key)
            if doc is None:
                doc = memo[key] = self.to_json()
            return doc
        nums, den = self._nums, self._den
        # Each coordinate in lowest terms, as Fraction reduces it; a zero
        # numerator has gcd(0, den) = den and reads [0, 1].
        gcds = map(math.gcd, nums, repeat(den))
        return {
            "order": self._order,
            "coeffs": [[n // g, den // g] for n, g in zip(nums, gcds)],
            "display_only": _display_string(self.approx()),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CycloNum":
        return cls(doc["order"], [Fraction(n, d) for n, d in doc["coeffs"]])


def root_of_unity(order: int, k: int) -> CycloNum:
    """zeta_order^k as a reduced residue; k is taken modulo order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return CycloNum._raw(order, _power_residues(order)[k % order], 1)


def _fold(order: int, poly: Sequence[int]) -> list[int]:
    # Power-basis numerators of the integer polynomial poly (constant term
    # first, any length) at zeta: the first phi coefficients stay, and
    # x^k = zeta^(k mod N) is read from the sparse residue table above them.
    residues = _sparse_residues(order)
    phi = len(_power_residues(order)[0])
    nums = list(poly[:phi]) + [0] * (phi - len(poly))
    for k in range(phi, len(poly)):
        t = poly[k]
        if t:
            for i, r in residues[k % order]:
                nums[i] += t * r
    return nums


@functools.lru_cache(maxsize=None)
def _sparse_residues(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row k: the (i, r) with r != 0 of the power-basis coordinates of zeta^k.
    return tuple(tuple((i, r) for i, r in enumerate(row) if r)
                 for row in _power_residues(order))


def _integer_coeffs(entry: object, order: int, phi: int) -> tuple[tuple[int, ...], int]:
    if isinstance(entry, CycloNum):
        if entry.order != order:
            raise ValueError(f"cyclotomic order mismatch: {entry.order} vs {order}")
        return entry.integer_coeffs()
    if isinstance(entry, (int, Fraction)):
        return (entry.numerator,) + (0,) * (phi - 1), entry.denominator
    raise TypeError(f"unsupported entry type {type(entry).__name__}")


def common_numerators(entries: Sequence[object], order: int) -> tuple[list[list[int]], int]:
    """Power-basis numerators of ``int``, ``Fraction`` or ``CycloNum``
    entries over their least common denominator D > 0: entry i equals
    sum_k nums[i][k] zeta_order^k / D, with phi(order) numerators each."""
    phi = euler_phi(order)
    parts = [_integer_coeffs(entry, order, phi) for entry in entries]
    common = math.lcm(*(den for _, den in parts))
    return [[n * (common // den) for n in nums] for nums, den in parts], common


def _normalized(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("division by zero in cyclotomic field")
    if not any(nums):
        return (0,) * len(nums), 1
    if den < 0:
        den = -den
        nums = [-n for n in nums]
    g = den
    for n in nums:
        if n:
            g = math.gcd(g, n)
            if g == 1:
                break
    if g > 1:
        nums = [n // g for n in nums]
        den //= g
    return tuple(nums), den


def _display_string(z: complex) -> str:
    re = round(z.real, 12)
    im = round(z.imag, 12)
    re += 0.0  # normalise -0.0
    im += 0.0
    if im == 0:
        return repr(re)
    sign = "+" if im > 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"
