"""The projective class ring as a ring of pairs over the structure group.

An element is a pair (s, t) of group ring elements: s collects classes of
simple modules, t collects multiplicities of indecomposable projective
covers.  Multiplication is

    (s1, t1) * (s2, t2) = (s1*s2, s1*t2 + t1*s2 + t1*c*t2)

where c is the canonical element recording the composition factors of the
projective cover of the trivial module.  The unit is (delta_identity, 0)
and the pairs with vanishing first component form a two-sided ideal.

The canonical element is validated on construction: nonnegative integer
multiplicities, trivial factor present, and total dimension at least two
(dimension one would mean the algebra is semisimple, in which case the ring
is just the integral group ring and no pair structure exists).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AbelianGroup, GroupElement, GroupRingElement

__all__ = [
    "CanonicalElementError",
    "PairElement",
    "ProjectiveClassRing",
]


class CanonicalElementError(ValueError):
    """A candidate canonical element violates a validation invariant.

    ``invariant`` carries the name of the violated invariant and is also the
    exception message: one of "invalid multiplicity", "missing trivial
    factor", "semisimple input".
    """

    def __init__(self, invariant: str):
        super().__init__(invariant)
        self.invariant = invariant


@dataclass(frozen=True)
class PairElement:
    """A pair (s_part, t_part) in the simple/projective basis split."""

    s_part: GroupRingElement
    t_part: GroupRingElement

    def __post_init__(self):
        s_group, t_group = self.s_part.group, self.t_part.group
        if s_group is not t_group and s_group != t_group:
            raise ValueError("pair components live over different groups")

    @property
    def group(self) -> AbelianGroup:
        return self.s_part.group

    def __add__(self, other: "PairElement") -> "PairElement":
        return PairElement(self.s_part + other.s_part, self.t_part + other.t_part)

    def __sub__(self, other: "PairElement") -> "PairElement":
        return PairElement(self.s_part - other.s_part, self.t_part - other.t_part)

    def __neg__(self) -> "PairElement":
        return PairElement(-self.s_part, -self.t_part)

    def is_zero(self) -> bool:
        return self.s_part.is_zero() and self.t_part.is_zero()

    def coefficient_vector(self) -> list:
        """Coordinates in the basis (simple classes, then projective classes),
        both blocks in canonical element order; length 2 * group size."""
        vec = [0] * (2 * self.group.size)
        for k, v in self.coordinates().items():
            vec[k] = v
        return vec

    def coordinates(self) -> dict[int, object]:
        """The nonzero entries of ``coefficient_vector``, keyed by position."""
        offset = self.group.size
        coords = dict(self.s_part.index_items())
        for i, v in self.t_part.index_items():
            coords[offset + i] = v
        return coords

    def to_json(self, memo: dict | None = None) -> dict:
        return {"s": self.s_part.to_json(memo), "t": self.t_part.to_json(memo)}


@dataclass(frozen=True, eq=False)
class ProjectiveClassRing:
    """The pair ring attached to a structure group and canonical element.

    Constructing it is the one check of the canonical element: it must
    live over ``group``, with nonnegative integer multiplicities, the
    trivial factor present and augmentation other than 1.  Equality is
    identity.
    """

    group: AbelianGroup
    canonical: GroupRingElement

    def __post_init__(self):
        group, element = self.group, self.canonical
        if element.group != group:
            raise ValueError("mixed-group operands")
        for _, coeff in element.items():
            if not isinstance(coeff, int) or coeff < 0:
                raise CanonicalElementError("invalid multiplicity")
        if element.coefficient(group.identity) < 1:
            raise CanonicalElementError("missing trivial factor")
        if element.augmentation() == 1:
            raise CanonicalElementError("semisimple input")

    def one(self) -> PairElement:
        return self.simple_class(self.group.identity)

    def simple_class(self, element: GroupElement) -> PairElement:
        """The class of the one-dimensional simple module labelled by a
        group element."""
        return PairElement(
            GroupRingElement.delta(self.group, element),
            GroupRingElement.zero(self.group),
        )

    def projective_class(self, element: GroupElement) -> PairElement:
        """The class of the indecomposable projective cover of a simple."""
        return PairElement(
            GroupRingElement.zero(self.group),
            GroupRingElement.delta(self.group, element),
        )

    def mul(self, x: PairElement, y: PairElement) -> PairElement:
        # The group ring rejects mixed groups; the factor c ties t to this ring.
        s = x.s_part * y.s_part
        t = x.s_part * y.t_part + x.t_part * y.s_part + x.t_part * y.t_part * self.canonical
        return PairElement(s, t)

    def dimension_vector(self, x: PairElement) -> GroupRingElement:
        """The composition-factor count of a class: s_part + t_part * c.

        A surjective ring homomorphism onto the integral group ring; it sends
        each projective class to the translate of the canonical element by
        its label.
        """
        return x.s_part + x.t_part * self.canonical

    def __repr__(self) -> str:
        return f"ProjectiveClassRing({self.group!r}, c={self.canonical!r})"
