"""Generators for named ring instances and the validated custom entry point.

A descriptor stores what defines an instance and nothing that follows from
it: a missing ring marks the semisimple case, and the golden
decomposition of ``uq_sl2`` is rendered from its golden support size r and
the group order by ``spectral.render_decomposition``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AbelianGroup, GroupRingElement, trace_element
from .pair_ring import ProjectiveClassRing

__all__ = [
    "InstanceDescriptor",
    "custom",
    "dual_group_algebra",
    "uq_sl2",
]


@dataclass(frozen=True)
class InstanceDescriptor:
    """A ready-to-analyze instance, optionally with a golden support size."""

    name: str
    group: AbelianGroup
    ring: ProjectiveClassRing | None
    expected_support_size: int | None = None

    @property
    def semisimple(self) -> bool:
        return self.ring is None


def uq_sl2(n: int) -> InstanceDescriptor:
    """The half-quantum group of sl2 at an n-th root of unity: cyclic
    structure group of order n, canonical element the trace element."""
    if n < 2:
        raise ValueError(f"root-of-unity order must be at least 2, got {n}")
    group = AbelianGroup((n,))
    return InstanceDescriptor(
        name=f"uq-sl2({n})",
        group=group,
        ring=ProjectiveClassRing(trace_element(group)),
        expected_support_size=1,
    )


def dual_group_algebra(orders: tuple[int, ...]) -> InstanceDescriptor:
    """The algebra of functions on a finite abelian group: semisimple, so
    the class ring is just the integral group ring and there is no pair
    structure to analyze."""
    group = AbelianGroup(orders)
    return InstanceDescriptor(
        name=f"dual-group({','.join(str(n) for n in orders)})",
        group=group,
        ring=None,
    )


def custom(orders: tuple[int, ...], coeffs: dict[tuple[int, ...], int],
           name: str = "custom") -> InstanceDescriptor:
    """A user-supplied instance; building its ring validates the canonical
    element."""
    group = AbelianGroup(orders)
    ring = ProjectiveClassRing(GroupRingElement(group, coeffs))
    return InstanceDescriptor(name=name, group=group, ring=ring)
