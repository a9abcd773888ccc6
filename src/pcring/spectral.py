"""Complexified structure of the pair ring: support, idempotents, nilradical.

Under the character transform the complexified ring becomes, character by
character, a two-dimensional algebra on pairs (x, y) with product
(x1*x2, x1*y2 + y1*x2 + lambda*y1*y2), where lambda is the transform of the
canonical element at that character.  For lambda != 0 the block splits into
two one-dimensional factors; for lambda == 0 it is the dual numbers.  With
r the number of nonvanishing characters and s the group order this yields
the decomposition C^(2r) x C[eps]^(s-r), which ``render_decomposition``
alone spells out: it depends on r and s only, and nothing stores it.

Everything here is computed in transform coordinates, where the block
formulas are literal, and pulled back to group ring coordinates through the
inverse transform.  The returned idempotents carry explicit 1/lambda
factors, so they are valid in the caller's original coordinates without any
silent rescaling of the canonical element; the report's ``element`` and
``unit`` exhibit the rescaling separately as a central unit certificate.

``spectral_report`` is the one entry point: one ``fourier`` call, the
transform of c, whose values and ring are all a ``SpectralReport`` stores.
Everything else is a property of the record, computed on first access and
then kept, so a caller pays only for what it reads.  The normalized
element is the one ``inverse_fourier`` call, of the support indicator; the
unit needs no transform, since its values, lambda on the support and 1 off
it, are those of c + delta_identity - element.  The pullback of
value * delta_b has coefficient value * zeta^(-<a,b>)/s at a: its s
coefficients are among the N root multiples of value/s, one shift-and-fold
pass of ``CycloNum``, run for 1/s once per report and for 1/(s*lambda) per
idempotent pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclotomics import CycloNum
from .groups import (
    AbelianGroup,
    GroupElement,
    GroupRingElement,
    fourier,
    inverse_fourier,
)
from .pair_ring import PairElement, ProjectiveClassRing

__all__ = ["SpectralReport", "render_decomposition", "spectral_report"]


def render_decomposition(r: int, s: int) -> str:
    """The complexified ring of r split characters out of s: each split
    block contributes a pair of one-dimensional factors, each of the other
    s - r blocks the dual numbers."""
    return f"C^{2 * r} x C[eps]^{s - r}"


@dataclass(frozen=True)
class SpectralReport:
    """The complexified analysis of one ring, derived from the transform of
    its canonical element.

    ``values`` holds one value lambda per character, in canonical order.
    The support, the set of characters where lambda does not vanish, is the
    complete isomorphism invariant.  ``element`` is the representative with
    transform values in {0, 1}, and ``unit`` the central unit with transform
    values ``unit_values`` (lambda on the support, 1 elsewhere), so that
    c = unit * element in the group ring.  ``idempotents`` and
    ``nilpotents`` share one build of the pullback rows.
    """

    ring: ProjectiveClassRing
    values: tuple[CycloNum, ...]

    @property
    def group(self) -> AbelianGroup:
        return self.ring.group

    @cached_property
    def support(self) -> tuple[GroupElement, ...]:
        """Labels of the nonvanishing characters."""
        return tuple(b for b, lam in zip(self.group.elements(), self.values) if lam)

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def decomposition(self) -> str:
        return render_decomposition(self.support_size, self.group.size)

    @cached_property
    def unit_values(self) -> tuple[CycloNum, ...]:
        one = CycloNum.one(self.group.conductor)
        return tuple(lam if lam else one for lam in self.values)

    @cached_property
    def element(self) -> GroupRingElement:
        # The inverse transform of the support indicator.
        n = self.group.conductor
        one, zero = CycloNum.one(n), CycloNum.zero(n)
        return inverse_fourier(self.group, [one if lam else zero for lam in self.values])

    @cached_property
    def unit(self) -> GroupRingElement:
        # The transform of c + delta_identity - element is lambda + 1 - 1 on
        # the support and 0 + 1 - 0 off it.  c's integers are embedded so
        # that every coefficient of the unit is a cyclotomic value.
        group = self.group
        n = group.conductor
        canonical = self.ring.canonical.map_coefficients(lambda v: CycloNum.rational(n, v))
        identity = GroupRingElement.delta(group, group.identity, CycloNum.one(n))
        return canonical + identity - self.element

    @cached_property
    def _pullbacks(self) -> list[GroupRingElement]:
        # Inverse transform of every Dirac mass, in character order.
        multiples = (CycloNum.one(self.group.conductor) / self.group.size).root_multiples()
        return [_pullback_row(self.group, b, multiples) for b in range(self.group.size)]

    @cached_property
    def idempotents(self) -> tuple[PairElement, ...]:
        """A complete system of primitive orthogonal idempotents.

        In transform coordinates: one idempotent (delta_b, 0) per vanishing
        character b, and the pair (delta_b, -delta_b/lambda), (0, delta_b/lambda)
        per nonvanishing character with value lambda.  Each is pulled back to
        group ring coordinates componentwise.  There are s + r entries,
        ordered by character; they sum to the ring unit.
        """
        group = self.group
        zero = GroupRingElement.zero(group)
        out: list[PairElement] = []
        for b, (row, lam) in enumerate(zip(self._pullbacks, self.values)):
            if lam:
                scaled = _pullback_row(group, b, (lam.inverse() / group.size).root_multiples())
                out.append(PairElement(row, -scaled))
                out.append(PairElement(zero, scaled))
            else:
                out.append(PairElement(row, zero))
        return tuple(out)

    @cached_property
    def nilpotents(self) -> tuple[PairElement, ...]:
        """A basis of the nilradical of the complexified ring.

        One element (0, pullback of delta_b) per vanishing character b: these
        span the orthogonal complement of the support inside the projective
        ideal, each squares to zero, and mutual products vanish.
        """
        zero = GroupRingElement.zero(self.group)
        return tuple(PairElement(zero, row)
                     for row, lam in zip(self._pullbacks, self.values) if not lam)

    def to_json(self, include_idempotents: bool = True,
                include_nilradical: bool = True) -> dict:
        """The report document.  Every cyclotomic value renders through one
        memo for this call, so equal values share one dict, which must not
        be modified."""
        memo: dict = {}
        doc: dict = {
            "s": self.group.size,
            "r": self.support_size,
            "decomposition": self.decomposition,
            "support_F": [list(label) for label in self.support],
            "fourier_c": [v.to_json(memo) for v in self.values],
        }
        if include_idempotents:
            doc["idempotents"] = [e.to_json(memo) for e in self.idempotents]
        if include_nilradical:
            doc["nilradical"] = [n.to_json(memo) for n in self.nilpotents]
        doc["normalized_c"] = {
            "element": self.element.to_json(memo),
            "unit": self.unit.to_json(memo),
            "unit_fourier": [v.to_json(memo) for v in self.unit_values],
        }
        return doc


def _pullback_row(group: AbelianGroup, b: int, multiples: list[CycloNum]) -> GroupRingElement:
    # Inverse transform of value * delta_b, given the N multiples of value/s:
    # coefficient multiples[-<a,b> mod N] at a, nonzero because value is.
    # For 0 <= k < N the index -k is -k mod N.
    return GroupRingElement._adopt(
        group, {a: multiples[-k] for a, k in enumerate(group.pairing_exponents()[b])})


def spectral_report(ring: ProjectiveClassRing) -> SpectralReport:
    """Transform the canonical element and return its report.

    The support is never empty: the trivial character evaluates to the
    augmentation, which is at least 2 for a valid canonical element.
    """
    report = SpectralReport(ring, tuple(fourier(ring.canonical)))
    if not report.support:
        raise AssertionError("transform of a valid canonical element cannot vanish everywhere")
    return report
