"""Complexified structure of the pair ring: support, idempotents, nilradical.

Under the character transform the complexified ring becomes, character by
character, a two-dimensional algebra on pairs (x, y) with product
(x1*x2, x1*y2 + y1*x2 + lambda*y1*y2), where lambda is the transform of the
canonical element at that character.  For lambda != 0 the block splits into
two one-dimensional factors; for lambda == 0 it is the dual numbers.  With
r the number of nonvanishing characters and s the group order this yields
the decomposition C^(2r) x C[eps]^(s-r).

Everything here is computed in transform coordinates, where the block
formulas are literal, and pulled back to group ring coordinates through the
inverse transform.  The returned idempotents carry explicit 1/lambda
factors, so they are valid in the caller's original coordinates without any
silent rescaling of the canonical element; the report's ``normalized``
field exhibits the rescaling separately as a central unit certificate.

``spectral_report`` is the one entry point: every quantity above is a field
or property of the ``SpectralReport`` it returns.  Both transforms go
through the exact histogram kernel of ``groups``: the spectrum is one
``fourier`` call and the normalized structure two ``inverse_fourier``
calls.  The pullback of the Dirac mass at character b has coefficient
zeta^(-<a,b>)/s at a, so its s^2 coefficients share the N values zeta^k/s;
the rows are built at most once per report.  A ``SpectralReport`` builds
its idempotents and nilpotents on first access, so the cyclotomic
inversions and the row build run only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclotomics import CycloNum
from .groups import (
    AbelianGroup,
    GroupElement,
    GroupRingElement,
    exponent_transform,
    fourier,
    inverse_fourier,
)
from .pair_ring import PairElement, ProjectiveClassRing

__all__ = [
    "Decomposition",
    "NormalizedStructure",
    "Spectrum",
    "SpectralReport",
    "spectral_report",
    "spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Character transform of the canonical element and its support."""

    values: tuple[CycloNum, ...]       # one value per character, canonical order
    support: tuple[GroupElement, ...]  # labels of the nonvanishing characters
    group_order: int

    @property
    def support_size(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class Decomposition:
    """Shape of the complexified ring: split character blocks contribute a
    pair of one-dimensional factors each, the rest contribute dual numbers."""

    split_characters: int
    dual_characters: int

    def render(self) -> str:
        return f"C^{2 * self.split_characters} x C[eps]^{self.dual_characters}"

    @property
    def total_dimension(self) -> int:
        return 2 * self.split_characters + 2 * self.dual_characters

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def from_spectrum(cls, spec: Spectrum) -> "Decomposition":
        r = spec.support_size
        return cls(split_characters=r, dual_characters=spec.group_order - r)


@dataclass(frozen=True)
class NormalizedStructure:
    """Canonical multiplicative structure and the unit relating it to c.

    ``element`` is the inverse transform of the indicator of the support:
    the representative with transform values in {0, 1}.  ``unit`` is the
    central unit with transform values ``unit_values`` (the original value on
    the support, 1 elsewhere), so that c = unit * element in the group ring.
    The support set itself is the complete isomorphism invariant.
    """

    element: GroupRingElement
    unit: GroupRingElement
    unit_values: tuple[CycloNum, ...]


@dataclass(frozen=True)
class SpectralReport:
    """Everything the complexified analysis produces for one ring.

    ``idempotents`` and ``nilpotents`` are computed on first access and then
    kept; both share one build of the pullback rows.
    """

    group: AbelianGroup
    spectrum: Spectrum
    decomposition: Decomposition
    normalized: NormalizedStructure

    @cached_property
    def _pullbacks(self) -> list[GroupRingElement]:
        # Inverse transform of every Dirac mass, in character order.
        multiples = _root_multiples(self.group, 1)
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
        for b, (row, lam) in enumerate(zip(self._pullbacks, self.spectrum.values)):
            if lam:
                scaled = _pullback_row(group, b, _root_multiples(group, lam.inverse()))
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
                     for row, lam in zip(self._pullbacks, self.spectrum.values) if not lam)

    def to_json(self, include_idempotents: bool = True,
                include_nilradical: bool = True) -> dict:
        doc: dict = {
            "s": self.spectrum.group_order,
            "r": self.spectrum.support_size,
            "decomposition": self.decomposition.render(),
            "support_F": [list(label) for label in self.spectrum.support],
            "fourier_c": [v.to_json() for v in self.spectrum.values],
        }
        if include_idempotents:
            doc["idempotents"] = [e.to_json() for e in self.idempotents]
        if include_nilradical:
            doc["nilradical"] = [n.to_json() for n in self.nilpotents]
        doc["normalized_c"] = {
            "element": self.normalized.element.to_json(),
            "unit": self.normalized.unit.to_json(),
            "unit_fourier": [v.to_json() for v in self.normalized.unit_values],
        }
        return doc


def spectrum(ring: ProjectiveClassRing) -> Spectrum:
    """Transform the canonical element and record where it does not vanish.

    The support is never empty: the trivial character evaluates to the
    augmentation, which is at least 2 for a valid canonical element.
    """
    group = ring.group
    values = fourier(group, ring.canonical)
    support = tuple(b for b, v in zip(group.elements(), values) if v)
    if not support:
        raise AssertionError("transform of a valid canonical element cannot vanish everywhere")
    return Spectrum(values=tuple(values), support=support, group_order=group.size)


def _root_multiples(group: AbelianGroup, value: object) -> list[CycloNum]:
    # value * zeta^k / s for k = 0 .. N-1.
    n = group.conductor
    return exponent_transform(np.arange(n)[None, :], [value], n, group.size)


def _pullback_row(group: AbelianGroup, b: int, multiples: list[CycloNum]) -> GroupRingElement:
    # Inverse transform of value * delta_b, given the multiples of value:
    # coefficient multiples[-<a,b> mod N] at a, nonzero because value is.
    exps = (-group.pairing_exponents()[b] % group.conductor).tolist()
    return GroupRingElement._adopt(group, dict(enumerate([multiples[k] for k in exps])))


def spectral_report(ring: ProjectiveClassRing) -> SpectralReport:
    """Run the whole complexified analysis once, sharing the spectrum.

    Idempotents and nilpotents are left to first access.
    """
    group = ring.group
    spec = spectrum(ring)
    n = group.conductor
    one, zero = CycloNum.one(n), CycloNum.zero(n)
    unit_values = tuple(lam if lam else one for lam in spec.values)
    return SpectralReport(
        group=group,
        spectrum=spec,
        decomposition=Decomposition.from_spectrum(spec),
        normalized=NormalizedStructure(
            element=inverse_fourier(group, [one if lam else zero for lam in spec.values]),
            unit=inverse_fourier(group, unit_values),
            unit_values=unit_values,
        ),
    )
