"""Pluggable first-hop routing for supervised walks.

A walk leaves its origin through exactly one neighbor per attempt, and
that choice is the one place the protocol can act on link-health
knowledge: everything after the first hop runs on remote nodes that only
see local state. A :class:`RoutingPolicy` therefore owns two things —
choosing the first hop, and absorbing the origin-side outcome feedback
(completion / timeout) attributed to that hop:

* :class:`UniformRouting` — the paper's baseline: a uniform draw over
  the origin's live neighbors, no feedback. Byte-compatible with the
  pre-policy runtime (same RNG, same draw).
* :class:`HealthAwareRouting` — consults a
  :class:`~repro.network.health.HealthMonitor` of per-neighbor circuit
  breakers: draws uniformly over the *admitted* neighbors (closed
  breakers plus at most the half-open probes the monitor offers) and
  feeds outcomes back so correlated timeouts trip the offending link's
  breaker.

Mid-walk steps are *not* routed through a policy: remote nodes draw
uniformly over their own neighbors by construction (the Metropolis
proposal), and routing them through an origin-side object would break
the locality discipline documented in :mod:`repro.protocol.runtime`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.network.graph import OverlayGraph
from repro.network.health import HealthMonitor

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.protocol.lifecycle import WalkRecord


class RoutingPolicy(Protocol):
    """First-hop choice plus origin-side outcome feedback."""

    def choose_first_hop(
        self, record: "WalkRecord", neighbors: list[int], now: int
    ) -> int | None:
        """Pick this attempt's first hop out of the origin's neighbors.

        Sets ``record.first_hop`` on success. ``None`` means the policy
        refuses every neighbor right now (e.g. all breakers open) — the
        caller fast-fails the walk instead of burning its timeout.
        """
        ...

    def record_outcome(
        self, origin: int, first_hop: int | None, ok: bool, time: int
    ) -> None:
        """Attribute a walk outcome to the link it first left through.

        ``first_hop`` is ``None`` when the attempt never moved (nothing
        to attribute); policies without feedback ignore the call.
        """
        ...


class UniformRouting:
    """Uniform first-hop draw over live neighbors; no feedback."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def choose_first_hop(
        self, record: "WalkRecord", neighbors: list[int], now: int
    ) -> int | None:
        target = neighbors[int(self._rng.integers(len(neighbors)))]
        record.first_hop = target
        return target

    def record_outcome(
        self, origin: int, first_hop: int | None, ok: bool, time: int
    ) -> None:
        return None


class HealthAwareRouting:
    """Breaker-aware first-hop choice backed by a health monitor.

    Draws uniformly over the admitted neighbors; when every link is
    suppressed the walk fast-fails instead of burning its full timeout
    on a hop the origin already knows is dead — the caller sees an
    honest shortfall immediately.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        monitor: HealthMonitor,
        rng: np.random.Generator,
    ) -> None:
        self._graph = graph
        self._monitor = monitor
        self._rng = rng

    def choose_first_hop(
        self, record: "WalkRecord", neighbors: list[int], now: int
    ) -> int | None:
        admitted, probes = self._monitor.admitted(
            record.origin, neighbors, now
        )
        if not admitted:
            self._monitor.fault_log.record(
                now,
                "breaker_suppressed",
                walker_id=record.walker_id,
                node=record.origin,
            )
            return None
        target = admitted[int(self._rng.integers(len(admitted)))]
        record.first_hop = target
        if target in probes:
            self._monitor.start_probe(record.origin, target, now)
        return target

    def record_outcome(
        self, origin: int, first_hop: int | None, ok: bool, time: int
    ) -> None:
        if first_hop is None:
            return
        self._monitor.record_outcome(
            origin,
            first_hop,
            ok=ok,
            time=time,
            n_neighbors=(
                len(self._graph.neighbors(origin))
                if origin in self._graph
                else None
            ),
        )
