"""Continual-querying schedulers: when to run the next snapshot query.

Two policies from the paper's evaluation:

* ``ALL`` (:class:`ContinuousScheduler`) — the naive baseline: execute a
  snapshot query at every time step.
* ``PRED-k`` (:class:`ExtrapolationScheduler`) — the extrapolation
  algorithm of Section IV-A: predict, from the last ``k`` snapshot
  results, the earliest time the aggregate will have drifted by ``delta``,
  and skip every step before it. Until enough history exists
  (the bootstrapping period) it behaves like ``ALL``.

Walk batch coalescing moved to the protocol layer
(:mod:`repro.protocol.batching`) — a batch is a property of the walk
lifecycle, not of any single query's scheduling policy. The types are
re-exported here because the benchmark harness under ``perfbench/``
imports them by this path.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.extrapolation import TaylorExtrapolator
from repro.errors import QueryError
from repro.protocol.batching import (  # noqa: F401 - perfbench/ imports these
    WalkBatchPlan,
    WalkDemand,
    coalesce_demands,
)


class SnapshotScheduler(Protocol):
    """Decides the next snapshot time from the history of results."""

    #: Why the most recent :meth:`next_time` chose its answer — the
    #: trigger reason carried on the next snapshot-query trace span
    #: (``"periodic"``, ``"bootstrap"``, ``"predicted_drift"`` or
    #: ``"horizon_capped"``).
    last_decision: str

    def next_time(self, history: list[tuple[int, float]], now: int) -> int:
        """Absolute time of the next snapshot query (> ``now``)."""
        ...


class ContinuousScheduler:
    """``ALL``: a snapshot query at every step (optionally every ``period``)."""

    def __init__(self, period: int = 1) -> None:
        if period < 1:
            raise QueryError(f"period must be >= 1, got {period}")
        self.period = period
        self.last_decision: str = "periodic"

    def next_time(self, history: list[tuple[int, float]], now: int) -> int:
        return now + self.period


class ExtrapolationScheduler:
    """``PRED-k``: extrapolation-driven continual querying.

    ``n_points`` is the paper's ``k``; ``delta`` the resolution parameter
    of the continuous query. During bootstrap (fewer than ``k+1`` history
    points) it schedules every ``period`` steps like ``ALL``.
    """

    def __init__(
        self,
        delta: float,
        n_points: int = 3,
        period: int = 1,
        max_horizon: int = 64,
        safety_factor: float = 1.0,
    ) -> None:
        if delta < 0:
            raise QueryError(f"delta must be >= 0, got {delta}")
        if period < 1:
            raise QueryError(f"period must be >= 1, got {period}")
        self.delta = delta
        self.period = period
        self._extrapolator = TaylorExtrapolator(
            n_points=n_points,
            max_horizon=max_horizon,
            safety_factor=safety_factor,
        )
        self.predictions_made = 0
        self.bootstrap_steps = 0
        self.last_decision: str = "bootstrap"

    @property
    def extrapolator(self) -> TaylorExtrapolator:
        return self._extrapolator

    def next_time(self, history: list[tuple[int, float]], now: int) -> int:
        if len(history) < self._extrapolator.required_history or self.delta == 0:
            self.bootstrap_steps += 1
            self.last_decision = "bootstrap"
            return now + self.period
        result = self._extrapolator.predict_next_update(history, self.delta)
        self.predictions_made += 1
        self.last_decision = result.trigger_reason
        # never schedule in the past/present, and snap to the step grid
        return max(now + self.period, result.next_time)
