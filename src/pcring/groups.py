"""Finite abelian groups, their group rings, and the character transform.

A group is a product of cyclic factors of orders (n_1, ..., n_t); elements
are exponent tuples a = (a_1, ..., a_t) with 0 <= a_i < n_i.  Characters are
indexed by the group itself: the value of the character labelled b on the
element a is zeta_N^(sum_i (N/n_i) * a_i * b_i), where N = lcm(n_i) is the
conductor.  Evaluating every character at once is the Fourier transform
CG -> C^G, a ring isomorphism carrying convolution to pointwise product.

Both directions of the transform run through one exact kernel,
``exponent_transform``, which serves ``fourier`` and ``inverse_fourier`` and
nothing else.  All coefficients are written over one common
denominator, as integer numerators n_j of the powers zeta^j.  The numerator
n_j of the coefficient at a lands in the cell H[b][E[a][b] + j] of an
s x (N + phi - 1) histogram of Python integers, where E[a][b] = <a, b> mod N
is the pairing-exponent table cached on the group; the inverse transform
reads the row of -a, since <-a, b> = -<a, b>.  Folding each histogram row
modulo Phi_N (``cyclotomics._fold``) gives every character value in the
power basis, so vanishing is an exact integer test.  ``character_value`` evaluates a single
character directly; it and ``fourier`` read the group from the element.

Group ring elements are sparse coefficient maps with no stored zeros, so
structural equality coincides with mathematical equality.  Inside, a map is
keyed by element index (the position in ``AbelianGroup.elements()``), and
convolution reads the index of a + b from an s x s table cached on the group,
so multiplication adds integers rather than exponent tuples.  Exponent tuples
are the keys at the API boundary: validated constructor input,
``coefficient``, ``items``, ``support`` and ``to_json``.
Index order is lexicographic order, so every listing comes out sorted by
exponent tuple.  The coefficient domain is whatever supports ring
arithmetic; in practice ``int``, ``Fraction`` or
:class:`~pcring.cyclotomics.CycloNum`, the three types the transform accepts.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cyclotomics import CycloNum, _fold, common_numerators, euler_phi, root_of_unity

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "GroupRingElement",
    "character_value",
    "exponent_transform",
    "fourier",
    "inverse_fourier",
    "pairing",
    "trace_element",
]

GroupElement = tuple[int, ...]


class AbelianGroup:
    """A product of cyclic groups given by its tuple of factor orders."""

    __slots__ = ("_orders", "_size", "_conductor", "_elements", "_index", "_exponents",
                 "_sums")

    def __init__(self, orders: Iterable[int]):
        orders = tuple(orders)
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {orders}")
        self._orders = orders
        self._size = math.prod(orders)
        self._conductor = math.lcm(*orders)
        self._elements: tuple[GroupElement, ...] | None = None
        self._index: dict[GroupElement, int] | None = None
        self._exponents: tuple[tuple[int, ...], ...] | None = None
        self._sums: tuple[tuple[int, ...], ...] | None = None

    @property
    def orders(self) -> tuple[int, ...]:
        return self._orders

    @property
    def size(self) -> int:
        return self._size

    @property
    def conductor(self) -> int:
        return self._conductor

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self._orders)

    def elements(self) -> tuple[GroupElement, ...]:
        """All elements in lexicographic order, identity first."""
        if self._elements is None:
            self._elements = tuple(itertools.product(*(range(n) for n in self._orders)))
        return self._elements

    def index(self, a: GroupElement) -> int:
        return self._indices()[a]

    def _indices(self) -> dict[GroupElement, int]:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements())}
        return self._index

    def sum_table(self) -> tuple[tuple[int, ...], ...]:
        """The s x s table whose entry [i][j] is the index of
        elements()[i] + elements()[j]; built once per group."""
        if self._sums is None:
            # Mixed radix, one cyclic factor at a time: the last factor varies
            # fastest in elements(), so index A * n + x extends index A of the
            # factors before it by the exponent x of the factor of order n.
            # A factor of order 1 extends no index and is skipped.
            sums = [[0]]
            for n in self._nontrivial_orders():
                shifts = [[(x + y) % n for y in range(n)] for x in range(n)]
                sums = [[k * n + z for k in row for z in shifted]
                        for row in sums for shifted in shifts]
            self._sums = tuple(map(tuple, sums))
        return self._sums

    def _nontrivial_orders(self) -> list[int]:
        return [n for n in self._orders if n > 1]

    def element(self, exponents: Iterable[int]) -> GroupElement:
        """Validate an exponent tuple; out-of-range entries are rejected."""
        exps = tuple(exponents)
        if len(exps) != len(self._orders):
            raise ValueError(
                f"expected {len(self._orders)} exponents, got {len(exps)}"
            )
        for e, n in zip(exps, self._orders):
            if not isinstance(e, int) or not 0 <= e < n:
                raise ValueError(f"exponent {e} out of range for cyclic factor of order {n}")
        return exps

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % n for x, y, n in zip(a, b, self._orders))

    def inv(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % n for x, n in zip(a, self._orders))

    def pairing_exponent(self, a: GroupElement, b: GroupElement) -> int:
        """Exponent of zeta_N in the duality pairing of a with b."""
        n = self._conductor
        return sum((n // ni) * x * y for x, y, ni in zip(a, b, self._orders)) % n

    def pairing_exponents(self) -> tuple[tuple[int, ...], ...]:
        """The s x s table E[a][b] = pairing_exponent(a, b), rows and columns
        in canonical element order; built once per group."""
        if self._exponents is None:
            # Mixed radix as in sum_table: the factor of order n adds
            # (N/n) x y to the exponent of the factors before it.
            big = self._conductor
            exps = [[0]]
            for n in self._nontrivial_orders():
                weights = [big // n * x for x in range(n)]
                steps = [[w * y % big for y in range(n)] for w in weights]
                exps = [[(e + d) % big for e in row for d in step]
                        for row in exps for step in steps]
            self._exponents = tuple(map(tuple, exps))
        return self._exponents

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self._orders == other._orders

    def __hash__(self) -> int:
        return hash(self._orders)

    def __repr__(self) -> str:
        return f"AbelianGroup{self._orders}"


class GroupRingElement:
    """Finitely supported coefficient map on a fixed abelian group.

    Multiplication is convolution; addition and scalar multiple are
    coefficientwise.  Zero coefficients are never stored.  ``coeffs`` is
    keyed by exponent tuple, each one validated.  Results computed inside
    the module are index-keyed maps taken as they are by ``_adopt``; each
    operation that can cancel a coefficient drops the zeros first.
    """

    __slots__ = ("_group", "_coeffs")

    def __init__(self, group: AbelianGroup, coeffs: Mapping[GroupElement, object] | None = None):
        self._group = group
        if coeffs is None:
            self._coeffs: dict[int, object] = {}
        else:
            index = group._indices()
            self._coeffs = {
                index[group.element(k)]: v for k, v in coeffs.items() if v
            }

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, group: AbelianGroup) -> "GroupRingElement":
        return cls(group, None)

    @classmethod
    def delta(cls, group: AbelianGroup, exponents: Iterable[int], coeff: object = 1) -> "GroupRingElement":
        """The Dirac mass at one group element."""
        return cls(group, {group.element(exponents): coeff})

    @classmethod
    def _adopt(cls, group: AbelianGroup, coeffs: dict[int, object]) -> "GroupRingElement":
        """Take an index-keyed map that holds no zero coefficient as it is."""
        elem = cls.__new__(cls)
        elem._group = group
        elem._coeffs = coeffs
        return elem

    # -- inspection ------------------------------------------------------------

    @property
    def group(self) -> AbelianGroup:
        return self._group

    def coefficient(self, a: GroupElement):
        i = self._group._indices().get(a)
        return 0 if i is None else self._coeffs.get(i, 0)

    def support(self) -> tuple[GroupElement, ...]:
        elements = self._group.elements()
        return tuple(elements[i] for i in sorted(self._coeffs))

    def items(self) -> list[tuple[GroupElement, object]]:
        """Nonzero terms by exponent tuple, in lexicographic order."""
        elements = self._group.elements()
        coeffs = self._coeffs
        return [(elements[i], coeffs[i]) for i in sorted(coeffs)]

    def index_items(self) -> Iterable[tuple[int, object]]:
        """Nonzero terms keyed by element index, in no particular order."""
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic --------------------------------------------------------------

    def _check_same_group(self, other: "GroupRingElement") -> None:
        if other._group is not self._group and other._group != self._group:
            raise ValueError("mixed-group operands")

    def __add__(self, other: object) -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: object) -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "GroupRingElement", sign: int) -> "GroupRingElement":
        # self + sign * other, sign = +-1, with no negated copy of other.
        self._check_same_group(other)
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other if sign > 0 else -other
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            cur = out.get(k)
            if sign > 0:
                out[k] = v if cur is None else cur + v
            else:
                out[k] = -v if cur is None else cur - v
        return GroupRingElement._adopt(self._group, {k: v for k, v in out.items() if v})

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement._adopt(self._group, {k: -v for k, v in self._coeffs.items()})

    def __mul__(self, other: object) -> "GroupRingElement":
        if isinstance(other, GroupRingElement):
            self._check_same_group(other)
            if not self._coeffs or not other._coeffs:
                return GroupRingElement._adopt(self._group, {})
            sums = self._group.sum_table()
            out: dict[int, object] = {}
            # Convolution commutes (an abelian group, coefficients in Q or
            # Q(zeta_N)), so the factor with fewer terms goes first.
            short, long = self._coeffs, other._coeffs
            if len(long) < len(short):
                short, long = long, short
            if len(short) == 1:
                # A translate: no two keys collide, and a product of nonzero
                # coefficients in a field is nonzero.
                (a, ca), = short.items()
                row = sums[a]
                return GroupRingElement._adopt(
                    self._group, {row[b]: ca * cb for b, cb in long.items()})
            get = out.get
            for a, ca in short.items():
                row = sums[a]
                for b, cb in long.items():
                    key = row[b]
                    v = ca * cb
                    cur = get(key)
                    out[key] = v if cur is None else cur + v
            return GroupRingElement._adopt(self._group, {k: v for k, v in out.items() if v})
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.map_coefficients(lambda v: v * other)
        return NotImplemented

    __rmul__ = __mul__

    def map_coefficients(self, fn) -> "GroupRingElement":
        return GroupRingElement._adopt(
            self._group, {k: w for k, v in self._coeffs.items() if (w := fn(v))}
        )

    def augmentation(self):
        """Sum of all coefficients; a ring homomorphism onto the coefficient
        domain.  The zero element maps to the integer 0."""
        total = 0
        for v in self._coeffs.values():
            total = v + total
        return total

    # -- comparisons and rendering --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self._group == other._group and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"GroupRingElement({self._group!r}, 0)"
        terms = " + ".join(f"{v}*K{list(k)}" for k, v in self.items())
        return f"GroupRingElement({self._group!r}, {terms})"

    # -- serialization -----------------------------------------------------------

    def to_json(self, memo: dict | None = None) -> dict:
        """Terms in exponent order; cyclotomic coefficients render through
        ``CycloNum.to_json(memo)``, so with a memo they may share dicts."""
        terms = []
        for exp, coeff in self.items():
            if isinstance(coeff, CycloNum):
                val: object = coeff.to_json(memo)
            elif isinstance(coeff, Fraction):
                val = [coeff.numerator, coeff.denominator]
            else:
                val = coeff
            terms.append({"exp": list(exp), "coeff": val})
        return {"group": list(self._group.orders), "terms": terms}


def trace_element(group: AbelianGroup) -> GroupRingElement:
    """The sum of all group elements, with integer coefficient 1 each."""
    return GroupRingElement._adopt(group, dict.fromkeys(range(group.size), 1))


def pairing(group: AbelianGroup, a: GroupElement, b: GroupElement) -> CycloNum:
    """The bilinear duality pairing of two group elements, a root of unity."""
    a, b = group.element(a), group.element(b)
    return root_of_unity(group.conductor, group.pairing_exponent(a, b))


def character_value(label: GroupElement, x: GroupRingElement) -> CycloNum:
    """Evaluate the character labelled ``label`` of ``x``'s group on ``x``."""
    group = x.group
    label = group.element(label)
    n = group.conductor
    acc = CycloNum.zero(n)
    for a, coeff in x.items():
        acc = acc + root_of_unity(n, group.pairing_exponent(a, label)) * coeff
    return acc


def exponent_transform(group: AbelianGroup, rows: Sequence[int], coeffs: Sequence[object],
                       scale: int = 1) -> list[CycloNum]:
    """Character sums of coefficients at given elements, exactly.

    Returns, for every label b in canonical order, the value
    sum_i coeffs[i] * zeta_N^E[rows[i]][b] / scale, where E is
    ``group.pairing_exponents()`` and N the conductor.  The coefficients
    are ``int``, ``Fraction`` or ``CycloNum`` of order N.
    """
    order = group.conductor
    exponents = group.pairing_exponents()
    scaled, common = common_numerators(coeffs, order)
    # Cell e + j collects the numerators of zeta^(e + j), e < N and j < phi;
    # _fold reduces every power, those past N included.
    width = order + euler_phi(order) - 1
    hist = [[0] * width for _ in range(group.size)]
    for row, nums in zip(rows, scaled):
        exps = exponents[row]
        for j, n in enumerate(nums):
            if n:
                for cells, e in zip(hist, exps):
                    cells[e + j] += n
    den = common * scale
    return [CycloNum._raw(order, _fold(order, cells), den) for cells in hist]


def fourier(x: GroupRingElement) -> list[CycloNum]:
    """All character values of ``x`` in canonical label order, the labels
    being the elements of ``x``'s group.

    This is the ring isomorphism onto functions: convolution goes to
    pointwise product, the Dirac mass at the identity to the all-ones vector.
    """
    return exponent_transform(x.group, list(x._coeffs), list(x._coeffs.values()))


def inverse_fourier(group: AbelianGroup, values: Sequence[object]) -> GroupRingElement:
    """Recover the group ring element with the given character values."""
    s = group.size
    if len(values) != s:
        raise ValueError(f"expected {s} character values, got {len(values)}")
    labels = [i for i, v in enumerate(values) if v]
    # zeta^(-<a, b>) = zeta^<a, -b>: the pairing row of -b.
    elements = group.elements()
    rows = [group.index(group.inv(elements[i])) for i in labels]
    coeffs = exponent_transform(group, rows, [values[i] for i in labels], s)
    return GroupRingElement._adopt(group, {i: v for i, v in enumerate(coeffs) if v})
