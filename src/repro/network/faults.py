"""Fault model for the unreliable overlay.

The paper's setting (Section II, VI-A) is an unstructured P2P network with
SETI@HOME-like churn: links drop messages, peers crash without warning,
and nothing guarantees a walk token or a sample-return message actually
arrives. This module is the single source of injected unreliability:

* :class:`FaultConfig` declares the failure rates (per-hop message loss,
  per-step node crashes, per-step link failures, delivery-latency jitter);
* :class:`FaultPlan` is one seeded *realization* of a config — all fault
  draws flow through its private generator so a fixed seed reproduces the
  exact same loss/crash/jitter sequence on every rerun;
* :class:`FaultLog` records every injected or observed fault as a
  :class:`FaultEvent`, the audit trail behind the "honest degradation"
  contract: a handler that hits a failure records an event instead of
  raising (digest-analyzer DGL006);
* :class:`CrashProcess` applies the per-step crash process to an
  :class:`~repro.network.graph.OverlayGraph`. It composes with
  :class:`~repro.network.churn.ChurnProcess` — both mutate the same graph
  and can be scheduled in the same simulation step (churn models
  *graceful* session behavior, crashes model *failures*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.network.graph import OverlayGraph


@dataclass(frozen=True)
class FaultConfig:
    """Failure rates of the unreliable overlay.

    ``message_loss`` is the probability each hop-level delivery is lost in
    transit; ``crash_probability`` is the per-step chance each unprotected
    node crashes (an ungraceful leave); ``link_failure_probability`` is
    the per-step chance each live link drops; ``latency_jitter`` adds a
    uniform ``0..jitter`` extra ticks to every successful delivery.
    ``crash_rewire`` controls whether neighbors of a crashed node detect
    the crash and stitch themselves together (the same repair churn uses);
    ``min_nodes`` floors how far crashes may shrink the overlay.
    """

    message_loss: float = 0.0
    crash_probability: float = 0.0
    link_failure_probability: float = 0.0
    latency_jitter: int = 0
    crash_rewire: bool = True
    min_nodes: int = 2

    def __post_init__(self) -> None:
        for name in ("message_loss", "crash_probability", "link_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.latency_jitter < 0:
            raise ValueError(
                f"latency_jitter must be >= 0, got {self.latency_jitter}"
            )
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")

    @property
    def is_noop(self) -> bool:
        """True when this config injects no faults at all."""
        return (
            self.message_loss == 0.0
            and self.crash_probability == 0.0
            and self.link_failure_probability == 0.0
            and self.latency_jitter == 0
        )


@dataclass(frozen=True)
class FaultEvent:
    """One recorded fault: what went wrong, where, and to whom.

    ``time`` is simulated time (``-1`` when the fault occurred outside the
    event loop, e.g. in the abstract matrix-based sampler). ``walker_id``
    and ``node`` are ``None`` when not applicable.
    """

    time: int
    kind: str
    walker_id: int | None = None
    node: int | None = None
    detail: str = ""


class FaultLog:
    """Append-only audit trail of fault events.

    Handlers convert failures into entries here instead of raising
    (digest-analyzer DGL006); experiments read the per-kind counts to report
    what actually happened alongside the estimates.
    """

    def __init__(self) -> None:
        self._events: list[FaultEvent] = []
        self._listeners: dict[str, Callable[[FaultEvent], None]] = {}

    def subscribe(
        self, listener: Callable[[FaultEvent], None], key: str
    ) -> None:
        """Register ``listener`` for every *future* event.

        Listeners are keyed: subscribing again under the same key replaces
        the old listener rather than adding a duplicate, so a log shared
        between components (e.g. a fault plan wired into both an operator
        and a protocol sampler) can be bridged to the same observer twice
        without double-counting.
        """
        self._listeners[key] = listener

    def unsubscribe(self, key: str) -> bool:
        """Remove the listener registered under ``key``.

        Returns True when a listener was removed, False when the key was
        unknown (already unsubscribed, or never registered). Long-lived
        sessions that attach and detach observers must call this so the
        log does not accumulate dead listeners.
        """
        return self._listeners.pop(key, None) is not None

    def record(
        self,
        time: int,
        kind: str,
        walker_id: int | None = None,
        node: int | None = None,
        detail: str = "",
    ) -> None:
        """Append one fault event."""
        event = FaultEvent(
            time=time, kind=kind, walker_id=walker_id, node=node, detail=detail
        )
        self._events.append(event)
        for listener in self._listeners.values():
            listener(event)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[FaultEvent]:
        """All recorded events, oldest first (copy)."""
        return list(self._events)

    def counts(self) -> dict[str, int]:
        """Number of recorded events per kind, kinds in sorted order.

        Deterministic ordering (not insertion order) so reports and JSON
        artifacts derived from the counts are stable across runs whose
        faults merely interleave differently.
        """
        totals: dict[str, int] = {}
        for event in self._events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return {kind: totals[kind] for kind in sorted(totals)}

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for event in self._events if event.kind == kind)

    def summary(self) -> str:
        """Human-readable per-kind tally, e.g. ``message_loss=3, node_crash=1``."""
        counts = self.counts()
        if not counts:
            return "no faults recorded"
        return ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))


class FaultPlan:
    """One seeded realization of a :class:`FaultConfig`.

    All fault randomness flows through the plan's own generator, separate
    from the protocol's sampling RNG, so enabling faults never perturbs
    the walk trajectories themselves — and a fixed seed reproduces the
    identical fault sequence (the determinism the acceptance criteria
    check by comparing ledgers across reruns).
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator | int,
    ) -> None:
        self.config = config
        self._rng = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        self.log = FaultLog()

    def message_lost(self) -> bool:
        """Draw whether one hop-level delivery is lost in transit."""
        if self.config.message_loss <= 0.0:
            return False
        return bool(self._rng.random() < self.config.message_loss)

    def walk_lost(self, n_hops: int) -> bool:
        """Draw whether a whole ``n_hops``-message walk loses any message.

        Used by the abstract (matrix-based) sampler, which executes walks
        in batch rather than hop by hop: the survival probability of a
        walk whose chain spans ``n_hops`` messages is
        ``(1 - message_loss) ** n_hops``.
        """
        if self.config.message_loss <= 0.0 or n_hops <= 0:
            return False
        survival = (1.0 - self.config.message_loss) ** n_hops
        return bool(self._rng.random() >= survival)

    def delivery_delay(self, base: int) -> int:
        """Latency of one successful delivery: ``base`` plus jitter."""
        jitter = self.config.latency_jitter
        if jitter <= 0:
            return base
        return base + int(self._rng.integers(0, jitter + 1))

    def record(
        self,
        time: int,
        kind: str,
        walker_id: int | None = None,
        node: int | None = None,
        detail: str = "",
    ) -> None:
        """Record a fault event on the plan's log."""
        self.log.record(time, kind, walker_id=walker_id, node=node, detail=detail)


class CrashProcess:
    """Per-step ungraceful departures, driven by a :class:`FaultPlan`.

    Mirrors :class:`~repro.network.churn.ChurnProcess` (and composes with
    it on the same graph): each step every live, unprotected node crashes
    with ``config.crash_probability`` and every live link drops with
    ``config.link_failure_probability``. Crashed nodes are recorded on the
    plan's log; the ``min_nodes`` floor is applied after a seeded shuffle
    so survival is not biased by node-id order.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        plan: FaultPlan,
        protected: set[int] | None = None,
    ) -> None:
        self._graph = graph
        self._plan = plan
        self._protected = set(protected or ())

    @property
    def protected(self) -> set[int]:
        return set(self._protected)

    def protect(self, node: int) -> None:
        """Exempt ``node`` from crashes (typically the querying node)."""
        self._protected.add(node)

    def step(self, time: int) -> list[int]:
        """Run one crash round at simulated ``time``; returns crashed ids.

        ``time`` is required: crash events must carry the simulated time
        they occurred at so fault timelines line up with walk spans (the
        old ``-1`` default silently produced untimestamped audit entries).
        """
        plan = self._plan
        config = plan.config
        rng = plan._rng
        crashed: list[int] = []
        if config.crash_probability > 0.0:
            candidates = [
                node
                for node in self._graph.nodes()
                if node not in self._protected
            ]
            if candidates:
                draws = rng.random(len(candidates))
                doomed = [
                    node
                    for node, draw in zip(candidates, draws)
                    if draw < config.crash_probability
                ]
                headroom = len(self._graph) - config.min_nodes
                if 0 <= headroom < len(doomed):
                    order = rng.permutation(len(doomed))
                    doomed = [doomed[int(i)] for i in order]
                for node in doomed[: max(0, headroom)]:
                    self._graph.leave(node, rewire=config.crash_rewire)
                    crashed.append(node)
                    plan.record(time, "node_crash", node=node)
        if config.link_failure_probability > 0.0:
            for u, v in self._graph.edges():
                if rng.random() < config.link_failure_probability:
                    # never orphan an endpoint: a node's last link stays up
                    if self._graph.degree(u) > 1 and self._graph.degree(v) > 1:
                        self._graph.remove_edge(u, v)
                        plan.record(
                            time, "link_failure", detail=f"({u}, {v})"
                        )
        return crashed
