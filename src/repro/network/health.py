"""Origin-side link health: scores, circuit breakers, partition detection.

A node supervising its own walks (the :class:`RetryPolicy` machinery in
:mod:`repro.protocol.runtime`) already observes which walks die. This
module turns those observations into *routing* decisions, using only
local knowledge:

* every first hop out of the origin carries an implicit probe: a walk
  that completes vouches for the neighbor it left through, a walk that
  times out or exhausts its retries indicts it;
* a per-neighbor :class:`CircuitBreaker` trips after
  ``failure_threshold`` consecutive failures — the origin stops proposing
  walks through that link (saving the doomed messages), waits out a
  ``cooldown``, then goes *half-open* and risks exactly one probe walk;
  success closes the breaker, failure re-opens it;
* :class:`HealthMonitor` aggregates the breakers per origin, keeps an
  exponentially-weighted health score per neighbor, and detects a
  *partition* from the correlation the independent fault model never
  produces: when at least ``detect_fraction`` of an origin's neighbors
  have open breakers at once, the origin records ``partition_suspected``
  on the fault log (and ``partition_cleared`` when links recover).

Everything here is deterministic given the walk outcomes — the monitor
draws no randomness of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.network.faults import FaultLog
from repro.obs.schema import (
    EVENT_BREAKER_CLOSE,
    EVENT_BREAKER_PROBE,
    EVENT_BREAKER_TRIP,
)

if TYPE_CHECKING:  # pragma: no cover - layering: network stays obs-light
    from repro.obs.tracer import Tracer

#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class HealthConfig:
    """Tuning of the per-neighbor breakers and the partition detector.

    ``failure_threshold`` consecutive first-hop failures trip a breaker;
    an open breaker re-admits one probe after ``cooldown`` ticks.
    ``detect_fraction`` of an origin's known first-hop neighbors must be
    open simultaneously to suspect a partition. ``score_decay`` is the
    EWMA weight of history in the health score (1 = frozen, 0 = only the
    last outcome counts).
    """

    failure_threshold: int = 3
    cooldown: int = 20
    detect_fraction: float = 0.5
    score_decay: float = 0.8

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {self.cooldown}")
        if not 0.0 < self.detect_fraction <= 1.0:
            raise ValueError(
                f"detect_fraction must be in (0, 1], got {self.detect_fraction}"
            )
        if not 0.0 <= self.score_decay < 1.0:
            raise ValueError(
                f"score_decay must be in [0, 1), got {self.score_decay}"
            )


class CircuitBreaker:
    """Three-state breaker guarding one origin→neighbor first hop."""

    def __init__(self, config: HealthConfig) -> None:
        self._config = config
        self.state = CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0
        self._probing = False

    @property
    def is_open(self) -> bool:
        """True while the breaker refuses regular traffic."""
        return self.state != CLOSED

    def admits(self, time: int) -> str | None:
        """Whether a walk may leave through this link right now.

        Returns ``"closed"`` (normal traffic), ``"probe"`` (the breaker
        would go half-open: the caller may send exactly one probe walk and
        must confirm via :meth:`start_probe`), or ``None`` (suppressed).
        """
        if self.state == CLOSED:
            return CLOSED
        if self.state == OPEN:
            if time - self._opened_at >= self._config.cooldown:
                return "probe"
            return None
        # HALF_OPEN: one probe already in flight
        return None if self._probing else "probe"

    def start_probe(self, time: int) -> None:
        """The caller launched the probe walk :meth:`admits` offered."""
        self.state = HALF_OPEN
        self._probing = True

    def record_success(self, time: int) -> None:
        """A walk through this link completed: close and reset."""
        self.state = CLOSED
        self.consecutive_failures = 0
        self._probing = False

    def record_failure(self, time: int) -> bool:
        """A walk through this link died; returns True when this trips.

        A failed half-open probe re-opens immediately (and restarts the
        cooldown) but does not count as a new trip.
        """
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self.state = OPEN
            self._opened_at = time
            self._probing = False
            return False
        if (
            self.state == CLOSED
            and self.consecutive_failures >= self._config.failure_threshold
        ):
            self.state = OPEN
            self._opened_at = time
            return True
        return False


class HealthMonitor:
    """Per-origin neighbor health: breakers, scores, partition detection.

    One monitor serves a whole :class:`~repro.protocol.runtime.
    ProtocolSampler`; breakers are keyed ``(origin, neighbor)`` because
    health is an *origin-side* judgement about a first hop, not a global
    property of the link.
    """

    def __init__(
        self,
        config: HealthConfig | None = None,
        tracer: "Tracer | None" = None,
        fault_log: FaultLog | None = None,
    ) -> None:
        self.config = config if config is not None else HealthConfig()
        # imported lazily to keep repro.network importable without obs
        from repro.obs.tracer import NULL_TRACER

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self._breakers: dict[tuple[int, int], CircuitBreaker] = {}
        self._scores: dict[tuple[int, int], float] = {}
        self._suspected: set[int] = set()
        self.trips = 0
        self.probes = 0

    # ------------------------------------------------------------------
    # routing-side API (called while choosing a first hop)
    # ------------------------------------------------------------------

    def breaker(self, origin: int, neighbor: int) -> CircuitBreaker:
        """The breaker guarding ``origin -> neighbor`` (created lazily)."""
        key = (origin, neighbor)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.config)
            self._breakers[key] = breaker
        return breaker

    def score(self, origin: int, neighbor: int) -> float:
        """EWMA health score in [0, 1]; unknown links start healthy."""
        return self._scores.get((origin, neighbor), 1.0)

    def admitted(
        self, origin: int, neighbors: list[int], time: int
    ) -> tuple[list[int], set[int]]:
        """Split ``neighbors`` into (admitted, probe-candidates).

        Admitted neighbors may carry a walk right now; the subset in the
        returned probe set would do so as a half-open probe (confirm with
        :meth:`start_probe` once one is actually chosen). Order of the
        admitted list follows ``neighbors`` so a seeded uniform choice
        over it stays deterministic.
        """
        admitted: list[int] = []
        probes: set[int] = set()
        for neighbor in neighbors:
            verdict = self.breaker(origin, neighbor).admits(time)
            if verdict is None:
                continue
            admitted.append(neighbor)
            if verdict == "probe":
                probes.add(neighbor)
        return admitted, probes

    def start_probe(self, origin: int, neighbor: int, time: int) -> None:
        """Confirm the probe :meth:`admitted` offered for this neighbor."""
        self.breaker(origin, neighbor).start_probe(time)
        self.probes += 1
        self._tracer.event(
            EVENT_BREAKER_PROBE, time=time, origin=origin, neighbor=neighbor
        )

    # ------------------------------------------------------------------
    # outcome feedback (called by the walk supervisor)
    # ------------------------------------------------------------------

    def record_outcome(
        self,
        origin: int,
        neighbor: int,
        ok: bool,
        time: int,
        n_neighbors: int | None = None,
    ) -> None:
        """Feed one supervised first-hop outcome back into the health state.

        ``n_neighbors`` is the origin's current neighbor count, used by
        the partition detector to judge what fraction of its links look
        dead; pass it when known (the protocol runtime always does).
        """
        key = (origin, neighbor)
        decay = self.config.score_decay
        self._scores[key] = decay * self.score(origin, neighbor) + (
            1.0 - decay
        ) * (1.0 if ok else 0.0)
        breaker = self.breaker(origin, neighbor)
        if ok:
            was_open = breaker.is_open
            breaker.record_success(time)
            if was_open:
                self._tracer.event(
                    EVENT_BREAKER_CLOSE,
                    time=time,
                    origin=origin,
                    neighbor=neighbor,
                )
        elif breaker.record_failure(time):
            self.trips += 1
            self.fault_log.record(
                time,
                "breaker_trip",
                node=origin,
                detail=(
                    f"neighbor {neighbor} after "
                    f"{breaker.consecutive_failures} failures"
                ),
            )
            self._tracer.event(
                EVENT_BREAKER_TRIP,
                time=time,
                origin=origin,
                neighbor=neighbor,
                failures=breaker.consecutive_failures,
            )
        self._update_detector(origin, time, n_neighbors)

    # ------------------------------------------------------------------
    # origin-side partition detection
    # ------------------------------------------------------------------

    def open_fraction(self, origin: int, n_neighbors: int | None = None) -> float:
        """Fraction of the origin's first-hop links with open breakers."""
        keys = [key for key in self._breakers if key[0] == origin]
        total = n_neighbors if n_neighbors else len(keys)
        if total <= 0:
            return 0.0
        n_open = sum(1 for key in keys if self._breakers[key].is_open)
        return min(1.0, n_open / total)

    def partition_suspected(self, origin: int) -> bool:
        """True while the detector believes ``origin`` sits in a partition."""
        return origin in self._suspected

    def _update_detector(
        self, origin: int, time: int, n_neighbors: int | None
    ) -> None:
        fraction = self.open_fraction(origin, n_neighbors)
        if (
            fraction >= self.config.detect_fraction
            and origin not in self._suspected
        ):
            self._suspected.add(origin)
            self.fault_log.record(
                time,
                "partition_suspected",
                node=origin,
                detail=f"{fraction:.0%} of first-hop links dead",
            )
        elif fraction < self.config.detect_fraction and origin in self._suspected:
            self._suspected.discard(origin)
            self.fault_log.record(
                time,
                "partition_cleared",
                node=origin,
                detail=f"open-breaker fraction back to {fraction:.0%}",
            )
