"""In-memory span recording and self-time assembly.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the
index of the span that was open when it started (``-1`` for a root).
The benchmark's loop is one thread issuing one tick at a time, so an
open-span stack gives every span its causal parent.

A span's *self time* is its duration minus the part of its interval
covered by its direct children. Summed over every span under a root,
self times add up to the root's duration exactly: each nanosecond is
booked to the innermost span covering it, and the root keeps what no
instrumented layer covered (the untraced remainder).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

#: host time is the CPU time of the benchmark process (all its threads).
#: The closed loop is one CPU-bound thread with BLAS pinned to one
#: thread, so this is the time the program consumed; unlike wall time it
#: does not count preemption by other processes on a shared machine.
host_ns = time.process_time_ns
host_seconds = time.process_time


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the recorder's span list; -1 for a root

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans and counters; nothing leaves memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], int] = host_ns) -> None:
        self.clock = clock
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        #: plain counters (calls of count-only wrappers, work sizes, ...)
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(-1)
        self._stack.append(index)
        self._starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self._ends[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self._names[index]!r} closed while "
                f"{self._names[top]!r} is still open"
            )

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def spans(self) -> list[Span]:
        if self._stack:
            open_names = [self._names[i] for i in self._stack]
            raise RuntimeError(f"spans still open: {open_names}")
        return [
            Span(name, start, end, parent)
            for name, start, end, parent in zip(
                self._names, self._starts, self._ends, self._parents
            )
        ]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans():
                out.write(
                    json.dumps(
                        [span.name, span.start_ns, span.end_ns, span.parent]
                    )
                    + "\n"
                )


def covered_ns(start_ns: int, end_ns: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start_ns, end_ns]``."""
    clipped = sorted(
        (max(start_ns, lo), min(end_ns, hi))
        for lo, hi in intervals
        if hi > start_ns and lo < end_ns
    )
    total = 0
    cursor = start_ns
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Per-span self time: duration minus coverage by direct children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    return [
        span.duration_ns
        - covered_ns(span.start_ns, span.end_ns, children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def root_of(spans: list[Span]) -> list[int]:
    """Index of each span's root ancestor."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        # parents always precede children, so the parent's root is known
        roots.append(index if span.parent < 0 else roots[span.parent])
    return roots


@dataclass
class LayerTime:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def layer_times(
    spans: list[Span],
    layer_of: Callable[[str], str],
    roots: set[str] | None = None,
) -> dict[str, LayerTime]:
    """Aggregate calls, inclusive and self time per layer.

    ``layer_of`` maps a span name to its layer. Only spans under a root
    whose name is in ``roots`` count (all spans when ``roots`` is None);
    the root spans themselves are booked to their own layer, so their
    self time is the remainder no instrumented layer covered.
    """
    selfs = self_times(spans)
    root_index = root_of(spans)
    table: dict[str, LayerTime] = defaultdict(LayerTime)
    for index, span in enumerate(spans):
        if roots is not None and spans[root_index[index]].name not in roots:
            continue
        entry = table[layer_of(span.name)]
        entry.calls += 1
        entry.total_ns += span.duration_ns
        entry.self_ns += selfs[index]
    return dict(table)
