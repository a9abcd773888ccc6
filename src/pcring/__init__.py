"""Exact analysis of projective class rings over finite abelian structure groups.

The pipeline: build the pair ring from a structure group and a canonical
element, transform the canonical element to find its support, derive the
block decomposition C^(2r) x C[eps]^(s-r) with explicit idempotents and a
nilradical basis, and cross-check everything against an independent
structure-constants table.
"""

from .cyclotomics import CycloNum, cyclotomic_polynomial, euler_phi, root_of_unity
from .groups import (
    AbelianGroup,
    GroupRingElement,
    augmentation,
    character_value,
    fourier,
    inverse_fourier,
    pairing,
    trace_element,
)
from .instances import InstanceDescriptor, custom, dual_group_algebra, uq_sl2
from .oracle import (
    StructureTable,
    build_table,
    certify_radical,
    matches_pair_ring,
    radical_matches_spectral,
)
from .pair_ring import (
    CanonicalElementError,
    PairElement,
    ProjectiveClassRing,
    validate_canonical_element,
)
from .spectral import (
    NormalizedStructure,
    SpectralReport,
    Spectrum,
    spectral_report,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CanonicalElementError",
    "CycloNum",
    "GroupRingElement",
    "InstanceDescriptor",
    "NormalizedStructure",
    "PairElement",
    "ProjectiveClassRing",
    "SpectralReport",
    "Spectrum",
    "StructureTable",
    "augmentation",
    "build_table",
    "certify_radical",
    "character_value",
    "custom",
    "cyclotomic_polynomial",
    "dual_group_algebra",
    "euler_phi",
    "fourier",
    "inverse_fourier",
    "matches_pair_ring",
    "pairing",
    "radical_matches_spectral",
    "root_of_unity",
    "spectral_report",
    "spectrum",
    "trace_element",
    "uq_sl2",
    "validate_canonical_element",
]
