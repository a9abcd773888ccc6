"""In-process span tracing of pcring's public functions, from outside src/.

``Tracer.install(pcring)`` wraps each traced function where its caller looks
it up: module attributes for calls made through a module (``oracle.X``,
``linalg.X``, ``spectral.spectral_report``), the importing module for names
imported directly (``spectral.fourier``), and the class for methods.
``CycloNum`` multiplication is only counted.  Spans are kept in memory as
``[name, start, end, parent, instance]`` and written out by ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# Span name -> (module attribute path inside pcring, attribute).
MODULE_FUNCTIONS = {
    "groups.fourier": ("spectral", "fourier"),
    "spectral.spectral_report": ("spectral", "spectral_report"),
    "oracle.build_table": ("oracle", "build_table"),
    "oracle.matches_pair_ring": ("oracle", "matches_pair_ring"),
    "oracle.radical_matches_spectral": ("oracle", "radical_matches_spectral"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.in_row_span": ("linalg", "in_row_span"),
}
# Span name -> (module, class, method).
METHODS = {
    "pair_ring.mul": ("pair_ring", "ProjectiveClassRing", "mul"),
    "cyclotomics.inverse": ("cyclotomics", "CycloNum", "inverse"),
    "spectral.to_json": ("spectral", "SpectralReport", "to_json"),
    "oracle.is_associative": ("oracle", "StructureTable", "is_associative"),
    "oracle.radical": ("oracle", "StructureTable", "radical"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, pkg) -> None:
        """Wrap the traced functions of an imported ``pcring`` package."""
        counts = self.counts
        hooks = {
            "oracle.build_table": lambda table: counts.update(
                {"oracle.table_bytes": table.constants.nbytes}),
            "spectral.spectral_report": lambda report: counts.update(
                {"spectral.idempotents_built": len(report.idempotents)}),
        }
        for name, (module, attr) in MODULE_FUNCTIONS.items():
            owner = getattr(pkg, module)
            self._patch(owner, attr, self._timed(name, getattr(owner, attr), hooks.get(name)))
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(getattr(pkg, module), cls_name)
            self._patch(cls, attr, self._timed(name, getattr(cls, attr)))

        # is_associative caches its verdict; only the first call scans 8 s^3 triples.
        table_cls = pkg.oracle.StructureTable
        timed_assoc = table_cls.is_associative

        def is_associative(table):
            if table._associative is None:
                counts["oracle.triples"] += table.dim ** 3
            return timed_assoc(table)

        self._patch(table_cls, "is_associative", is_associative)

        cyclo = pkg.cyclotomics.CycloNum
        for attr in ("__mul__", "__rmul__"):
            counted = _counted(counts, "cyclotomics.mul_calls", getattr(cyclo, attr))
            self._patch(cyclo, attr, counted)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: call count, summed duration and summed self time
        (duration minus the time covered by direct children)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "instance"],
               "spans": self.spans, "counts": dict(self.counts), **extra}
        path.write_text(json.dumps(doc))


def _counted(counts: Counter, key: str, fn):
    def wrapper(self, other):
        counts[key] += 1
        return fn(self, other)
    return wrapper
