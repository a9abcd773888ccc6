"""Exact analysis of projective class rings over finite abelian structure groups.

The pipeline: build the pair ring from a canonical element, which names its
structure group, transform the canonical element to find its support,
derive the block decomposition C^(2r) x C[eps]^(s-r) with explicit
idempotents and a nilradical basis, and cross-check everything against an
independent structure-constants table.

Only that cross-check needs numpy.  ``oracle``, ``linalg`` and the names in
``__all__`` not imported here, which come from ``oracle``, load on first
access, so an analysis without the cross-check never loads numpy.
"""

import importlib

from .cyclotomics import CycloNum, cyclotomic_polynomial, euler_phi, root_of_unity
from .groups import (
    AbelianGroup,
    GroupRingElement,
    character_value,
    fourier,
    inverse_fourier,
    pairing,
    trace_element,
)
from .instances import InstanceDescriptor, custom, uq_sl2
from .pair_ring import CanonicalElementError, PairElement, ProjectiveClassRing
from .spectral import SpectralReport, spectral_report

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CanonicalElementError",
    "CycloNum",
    "GroupRingElement",
    "InstanceDescriptor",
    "PairElement",
    "ProjectiveClassRing",
    "SpectralReport",
    "StructureTable",
    "build_table",
    "certify_radical",
    "character_value",
    "custom",
    "cyclotomic_polynomial",
    "euler_phi",
    "fourier",
    "inverse_fourier",
    "matches_pair_ring",
    "pairing",
    "radical_matches_spectral",
    "root_of_unity",
    "spectral_report",
    "trace_element",
    "uq_sl2",
]


def __getattr__(name: str):
    if name in ("oracle", "linalg"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        return getattr(importlib.import_module(f"{__name__}.oracle"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
