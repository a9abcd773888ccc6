"""Generators for named ring instances and the validated custom entry point.

A descriptor stores what defines an instance and nothing that follows from
it: the ring names its own group, and the golden decomposition of
``uq_sl2`` is rendered from its golden support size r and the group order
by ``spectral.render_decomposition``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AbelianGroup, GroupRingElement, trace_element
from .pair_ring import ProjectiveClassRing

__all__ = [
    "InstanceDescriptor",
    "custom",
    "uq_sl2",
]


@dataclass(frozen=True)
class InstanceDescriptor:
    """A ready-to-analyze instance, optionally with a golden support size."""

    name: str
    ring: ProjectiveClassRing
    expected_support_size: int | None = None

    @property
    def group(self) -> AbelianGroup:
        return self.ring.group


def uq_sl2(n: int) -> InstanceDescriptor:
    """The half-quantum group of sl2 at an n-th root of unity: cyclic
    structure group of order n, canonical element the trace element."""
    if n < 2:
        raise ValueError(f"root-of-unity order must be at least 2, got {n}")
    return InstanceDescriptor(
        name=f"uq-sl2({n})",
        ring=ProjectiveClassRing(trace_element(AbelianGroup((n,)))),
        expected_support_size=1,
    )


def custom(orders: tuple[int, ...], coeffs: dict[tuple[int, ...], int],
           name: str = "custom") -> InstanceDescriptor:
    """A user-supplied instance; building its ring validates the canonical
    element."""
    ring = ProjectiveClassRing(GroupRingElement(AbelianGroup(orders), coeffs))
    return InstanceDescriptor(name=name, ring=ring)
