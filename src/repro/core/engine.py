"""The Digest engine: both tiers composed (Section III).

:class:`DigestEngine` runs one fixed-precision approximate continuous
aggregate query at one (querying) node: the continual-querying scheduler
decides *when* to run snapshot queries, the snapshot evaluator decides *how
many* samples each needs, and the sampling operator supplies the samples.
Every algorithm combination of the paper's evaluation is a configuration:

=============  ======================  =========================
Paper name     scheduler               evaluator
=============  ======================  =========================
ALL + INDEP    ``"all"``               ``"independent"``
ALL + RPT      ``"all"``               ``"repeated"``
PRED-k + INDEP ``"pred"`` (k points)   ``"independent"``
PRED-k + RPT   ``"pred"`` (k points)   ``"repeated"``  (= Digest)
=============  ======================  =========================

Drive the engine either step-by-step (``engine.step(t)`` from your own
loop) or by attaching it to a :class:`~repro.sim.engine.SimulationEngine`.

Since the multi-query refactor this class is a facade over a single-query
:class:`~repro.core.session.DigestSession` — same public surface, same
seed-for-seed results (a session with one query never coalesces walk
batches, and a cold pool passes requests straight through to the
operator). Register several queries on one session directly when you want
them to share walks; :class:`~repro.core.session.EngineConfig` also lives
there and is re-exported here for compatibility.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.query import ContinuousQuery
from repro.core.result import NotificationFilter, RunningResult, UpdateRecord
from repro.core.session import DigestSession, EngineConfig
from repro.core.snapshot import SnapshotEstimate
from repro.db.relation import P2PDatabase
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.obs.tracer import SinkTracer
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sim.engine import PRIORITY_QUERY, SimulationEngine
from repro.sim.metrics import RunMetrics

__all__ = ["DigestEngine", "EngineConfig"]


class DigestEngine:
    """One continuous query answered at one querying node."""

    def __init__(
        self,
        graph: OverlayGraph,
        database: P2PDatabase,
        continuous_query: ContinuousQuery,
        origin: int,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        sampler_config: SamplerConfig | None = None,
        config: EngineConfig | None = None,
        tracer: SinkTracer | None = None,
    ) -> None:
        """``tracer`` must be sink-capable (the engine's counters are
        *derived* from the span stream, not hand-booked): a
        :class:`~repro.obs.tracer.RunMetricsSink` feeding :attr:`metrics`
        is always attached, whether the tracer was passed in or the
        engine created its own."""
        self._session = DigestSession(
            graph,
            database,
            origin,
            rng,
            ledger=ledger,
            sampler_config=sampler_config,
            tracer=tracer,
        )
        self._qid = self._session.add_query(continuous_query, config=config)
        self._runtime = self._session.runtime(self._qid)
        self.ledger = self._session.ledger
        self.tracer = self._session.tracer

    @property
    def metrics(self) -> RunMetrics:
        return self._session.metrics

    @property
    def result(self) -> RunningResult:
        return self._runtime.result

    @property
    def operator(self) -> SamplingOperator:
        """The sampling operator owned by the session's pool."""
        return self._session.pool.operator

    @property
    def session(self) -> DigestSession:
        """The underlying single-query session (for pool/trace access)."""
        return self._session

    @property
    def config(self) -> EngineConfig:
        return self._runtime.config

    @property
    def continuous_query(self) -> ContinuousQuery:
        return self._runtime.continuous_query

    @property
    def next_due(self) -> int:
        """Time of the next scheduled snapshot query."""
        return self._runtime.next_due

    def current_estimate(self, time: int) -> float:
        """The running result under hold semantics."""
        return self._runtime.result.value_at(time)

    def subscribe(
        self,
        callback: Callable[[UpdateRecord], None],
        delta: float | None = None,
    ) -> NotificationFilter:
        """Register a "notify me whenever it changes by delta" callback.

        ``delta`` defaults to the query's own resolution parameter — the
        paper's intended user experience. The filter fires on the first
        result and then only when the estimate has moved by >= delta.
        """
        return self._session.subscribe(self._qid, callback, delta=delta)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self, time: int) -> SnapshotEstimate | None:
        """Advance to ``time``: run a snapshot query iff one is due.

        Returns the snapshot estimate when a query ran, else None. Steps
        may be sparse (callers need only call at due times, but calling on
        every step is equally correct).
        """
        executed = self._session.step(time)
        estimate = executed.get(self._qid)
        if estimate is not None:
            # mirror the per-query series onto the engine-level metrics,
            # where single-query callers have always read them
            self.metrics.series("estimate").record(time, estimate.aggregate)
            self.metrics.series("samples_per_query").record(
                time, estimate.n_total
            )
        return estimate

    def attach(self, simulation: SimulationEngine) -> None:
        """Schedule this engine's snapshot queries on a simulation engine.

        The engine runs at :data:`~repro.sim.engine.PRIORITY_QUERY`, i.e.
        after the step's data updates and churn, honoring the paper's
        static-during-occasion assumption.
        """

        def run(time: int) -> None:
            self.step(time)
            end = self.continuous_query.end_time
            if end is None or self.next_due <= end:
                simulation.schedule_at(self.next_due, run, PRIORITY_QUERY)

        start = max(self.continuous_query.start_time, simulation.now)
        simulation.schedule_at(start, run, PRIORITY_QUERY)
