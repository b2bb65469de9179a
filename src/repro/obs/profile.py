"""Wall-clock section profiling for finding hot paths.

This is the one module in the instrumented stack allowed to read the
wall clock: simulation logic itself must stay wall-clock-free (digest-analyzer
DGL002), but *how long the host spends computing* a sim-time span is
exactly what a profiler has to measure. Sections are keyed by name so a
section opened inside a sim-time span (e.g. ``spectral_recompute`` inside
a ``sample_acquisition`` span) attributes host cost to that phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class SectionStats:
    """Accumulated host cost for one named section."""

    name: str
    calls: int = 0
    total_ns: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def mean_ns(self) -> float:
        if self.calls == 0:
            raise ValueError(f"section {self.name!r} was never entered")
        return self.total_ns / self.calls


class WallClockProfiler:
    """Accumulates wall-clock time per named section.

    Re-entrant for *distinct* section names (nesting ``a`` inside ``b``
    books full time to both); re-entering the *same* name recursively
    would double-count, so it raises.
    """

    def __init__(self) -> None:
        self._sections: dict[str, SectionStats] = {}
        self._open: set[str] = set()

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        if name in self._open:
            raise RuntimeError(f"profiler section {name!r} re-entered")
        self._open.add(name)
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            self._open.discard(name)
            stats = self._sections.get(name)
            if stats is None:
                stats = SectionStats(name)
                self._sections[name] = stats
            stats.calls += 1
            stats.total_ns += elapsed

    def stats(self, name: str) -> SectionStats:
        found = self._sections.get(name)
        if found is None:
            raise KeyError(f"no profiled section named {name!r}")
        return found

    def report(self) -> dict[str, dict[str, float]]:
        """JSON-ready per-section summary, hottest section first."""
        ordered = sorted(
            self._sections.values(), key=lambda s: (-s.total_ns, s.name)
        )
        return {
            stats.name: {
                "calls": float(stats.calls),
                "total_ms": stats.total_ms,
                "mean_us": stats.total_ns / stats.calls / 1e3,
            }
            for stats in ordered
        }
