"""The benchmark's four workloads, driven through public APIs only.

Each workload is a closed loop: one thread issues tick ``t + 1`` only
after tick ``t`` has finished. A session tick is the world's database
writes followed by ``DigestSession.step``; a protocol tick is one
coalesced ``ProtocolSampler.run_walk_batch``. The oracle aggregate each
answer is checked against is computed outside the timed part of a tick.

Inputs. The overlay, the database and its update stream, and the
querying node are fixed per workload (``WORLD_SEED``). The ``--seed``
argument drives everything the system under test draws at random: the
session's or protocol's walk RNG and the fault plan's RNG. Across world
seeds the overlay alone moves messages per snapshot on ``lossy_churn``
by up to 2.7x (its mixing length from the origin sets the walk length,
and per-hop loss compounds over it), which would drown any change a
later version makes; with the world fixed, the seed-to-seed spread is
the system's own randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from layers import WORLD_STEP
from spans import SpanRecorder, host_seconds

#: seed of every workload's overlay, data and origin (see module docstring)
WORLD_SEED = 0

#: precision of the co-resident AVG queries, as multiples of the data's sigma
DELTA_RATIO = 0.5
CONFIDENCE = 0.95
#: (query id, scheduler, evaluator, epsilon / sigma)
MULTI_QUERIES = (
    ("q0", "pred", "repeated", 0.20),
    ("q1", "pred", "repeated", 0.30),
    ("q2", "all", "independent", 0.25),
    ("q3", "all", "independent", 0.35),
)
LARGE_QUERIES = (
    ("q0", "pred", "repeated", 0.20),
    ("q1", "all", "independent", 0.25),
)


@dataclass(frozen=True)
class Answer:
    """One answer to one query, with the oracle it is checked against."""

    tick: int
    query: str
    estimate: float
    truth: float
    epsilon: float
    confidence: float
    degraded: bool
    achieved_epsilon: float | None

    @property
    def hit(self) -> bool:
        return abs(self.estimate - self.truth) <= self.epsilon


class Run(Protocol):
    """One built instance of a workload, ready to tick."""

    def advance(
        self, tick: int, recorder: SpanRecorder | None
    ) -> tuple[float, Any]:
        """Run one tick; returns (host seconds of the step, raw output)."""

    def answers(self, tick: int, output: Any) -> list[Answer]:
        """Turn a tick's output into checked answers (untimed)."""

    def totals(self) -> dict[str, float]:
        """Cumulative exact counts since the run was built."""


def _origin(nodes: list[int]) -> int:
    rng = np.random.default_rng(WORLD_SEED ^ 0x5EED)
    return int(nodes[int(rng.integers(len(nodes)))])


def _streams(seed: int) -> list[np.random.Generator]:
    """(walk, fault, tuple-stage) RNGs: independent streams from ``seed``."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)]


class SessionRun:
    """A dataset world plus a :class:`DigestSession` answering AVG queries."""

    def __init__(
        self,
        instance: Any,
        session: Any,
        sigma: float,
        queries: tuple[tuple[str, str, str, float], ...],
        faults: Any = None,
    ) -> None:
        from repro.core.query import ContinuousQuery, Precision, Query
        from repro.core.session import EngineConfig
        from repro.db.aggregates import AggregateOp

        self.instance = instance
        self.session = session
        self.faults = faults
        self.epsilon: dict[str, float] = {}
        for query_id, scheduler, evaluator, ratio in queries:
            precision = Precision(
                delta=DELTA_RATIO * sigma,
                epsilon=ratio * sigma,
                confidence=CONFIDENCE,
            )
            session.add_query(
                ContinuousQuery(Query(AggregateOp.AVG, instance.expression), precision),
                config=EngineConfig(
                    scheduler=scheduler, evaluator=evaluator, pred_points=3
                ),
                query_id=query_id,
            )
            self.epsilon[query_id] = precision.epsilon

    def advance(self, tick: int, recorder: SpanRecorder | None) -> tuple[float, Any]:
        if recorder is not None:
            world = recorder.open(WORLD_STEP)
            self.instance.step(tick)
            recorder.close(world)
        else:
            self.instance.step(tick)
        start = host_seconds()
        executed = self.session.step(tick)
        return host_seconds() - start, executed

    def answers(self, tick: int, output: Any) -> list[Answer]:
        if not output:
            return []
        truth = self.instance.true_average()
        return [
            Answer(
                tick=tick,
                query=query_id,
                estimate=estimate.aggregate,
                truth=truth,
                epsilon=self.epsilon[query_id],
                confidence=CONFIDENCE,
                degraded=estimate.degraded,
                achieved_epsilon=estimate.achieved_epsilon,
            )
            for query_id, estimate in output.items()
        ]

    def totals(self) -> dict[str, float]:
        pool = self.session.pool
        delivered = pool.operator.samples_drawn
        lost = self.faults.log.count("walk_lost") if self.faults is not None else 0
        totals = {
            "messages": self.session.ledger.total,
            "walks_completed": delivered,
            "walks_launched": delivered + lost,
            "pool_hits": pool.pool_hits,
            "pool_misses": pool.pool_misses,
        }
        profiler = self.session.tracer.profiler
        if profiler is not None:
            try:
                totals["spectral_ns"] = profiler.stats("spectral_recompute").total_ns
            except KeyError:
                totals["spectral_ns"] = 0
        return totals


def _session(instance: Any, origin: int, seed: int, traced: bool, faulty: bool) -> tuple[Any, Any]:
    from repro.core.session import DigestSession
    from repro.network.faults import FaultConfig, FaultPlan
    from repro.obs.profile import WallClockProfiler
    from repro.obs.tracer import SinkTracer

    walk_rng, fault_rng, _ = _streams(seed)
    faults = (
        FaultPlan(FaultConfig(message_loss=0.01), rng=fault_rng) if faulty else None
    )
    # the traced run reads the existing spectral_recompute section
    tracer = SinkTracer(profiler=WallClockProfiler()) if traced else None
    session = DigestSession(
        instance.graph,
        instance.database,
        origin,
        walk_rng,
        faults=faults,
        tracer=tracer,
    )
    return session, faults


def build_clean_multi(seed: int, traced: bool) -> SessionRun:
    from repro.datasets import TemperatureConfig, TemperatureDataset

    config = TemperatureConfig()
    instance = TemperatureDataset(config, seed=WORLD_SEED).build()
    origin = _origin(instance.graph.nodes())
    session, _ = _session(instance, origin, seed, traced, faulty=False)
    return SessionRun(instance, session, config.expected_sigma, MULTI_QUERIES)


def build_lossy_churn(seed: int, traced: bool) -> SessionRun:
    from repro.datasets import MemoryConfig, MemoryDataset
    from repro.experiments.slo_audit import default_rules

    config = MemoryConfig()
    instance = MemoryDataset(config, seed=WORLD_SEED).build()
    origin = _origin(instance.graph.nodes())
    instance.churn.protect(origin)
    session, faults = _session(instance, origin, seed, traced, faulty=True)
    session.attach_live(default_rules())
    return SessionRun(
        instance, session, config.expected_sigma, MULTI_QUERIES, faults=faults
    )


def build_large_overlay(seed: int, traced: bool) -> SessionRun:
    from repro.datasets import MemoryConfig, MemoryDataset

    config = MemoryConfig(n_nodes=50_000, n_units=50_000, leave_probability=0.0)
    instance = MemoryDataset(config, seed=WORLD_SEED).build()
    origin = _origin(instance.graph.nodes())
    session, _ = _session(instance, origin, seed, traced, faulty=False)
    return SessionRun(instance, session, config.expected_sigma, LARGE_QUERIES)


#: protocol workload shape
PROTOCOL_NODES = 2_000
PROTOCOL_UNITS = 2_440  # MEMORY's 1000 units per 820 nodes, at 2,000 nodes
PROTOCOL_WALK_LENGTH = 30
PROTOCOL_LAZINESS = 0.5  # ProtocolConfig's default
#: (query id, walks demanded)
PROTOCOL_DEMANDS = (("q0", 200), ("q1", 100))
#: two-sided normal quantile of CONFIDENCE
Z_95 = 1.959964


class ProtocolRun:
    """Repeated coalesced two-query walk batches on the message protocol.

    A 30-step walk does not mix this overlay (the session's empirical
    mixing length from the same origin is 236 steps), so the answers are
    checked against what a correct protocol must deliver: samples from
    the 30-step distribution of the lazy Metropolis chain started at the
    origin. Each query's estimate is the mean of one uniform tuple per
    sampled node; its oracle is that estimate's expectation under the
    30-step distribution, and its epsilon is the normal 95% half-width
    for the demanded sample size.
    """

    def __init__(self, seed: int) -> None:
        from repro.core.scheduler import WalkDemand, coalesce_demands
        from repro.datasets import MemoryConfig, MemoryDataset
        from repro.network.faults import FaultConfig, FaultPlan
        from repro.network.messaging import MessageLedger
        from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
        from repro.sampling.weights import content_size_weights
        from repro.sim.engine import SimulationEngine

        config = MemoryConfig(
            n_nodes=PROTOCOL_NODES, n_units=PROTOCOL_UNITS, leave_probability=0.0
        )
        instance = MemoryDataset(config, seed=WORLD_SEED).build()
        self.graph = instance.graph
        self.database = instance.database
        self.origin = _origin(instance.graph.nodes())
        # the tuple stage of the benchmark's estimate draws from its own
        # stream, so it never perturbs the protocol's walk RNG
        walk_rng, fault_rng, self.tuple_rng = _streams(seed)
        self.simulation = SimulationEngine()
        self.sampler = ProtocolSampler(
            instance.graph,
            content_size_weights(instance.database),
            self.simulation,
            walk_rng,
            MessageLedger(),
            ProtocolConfig(variant="bounce", laziness=PROTOCOL_LAZINESS),
            faults=FaultPlan(
                FaultConfig(message_loss=0.02, latency_jitter=1), rng=fault_rng
            ),
            retry=RetryPolicy(
                timeout=4 * PROTOCOL_WALK_LENGTH, max_retries=8, backoff=1.2
            ),
        )
        self.plan = coalesce_demands(
            [WalkDemand(query, n) for query, n in PROTOCOL_DEMANDS]
        )
        self.demand = dict(PROTOCOL_DEMANDS)
        self._oracle: tuple[float, float] | None = None

    def advance(self, tick: int, recorder: SpanRecorder | None) -> tuple[float, Any]:
        start = host_seconds()
        slices = self.sampler.run_walk_batch(
            self.origin, self.plan, PROTOCOL_WALK_LENGTH, allow_partial=True
        )
        return host_seconds() - start, slices

    def oracle(self) -> tuple[float, float]:
        """(mean, std) of one sampled value under the L-step distribution.

        Built from the overlay's adjacency and fragment sizes directly,
        outside every instrumented function, so it adds no spans.
        """
        if self._oracle is None:
            import scipy.sparse

            nodes = self.graph.nodes()
            index = {node: i for i, node in enumerate(nodes)}
            columns = [self.database.store(node).columns() for node in nodes]
            weight = np.array([len(next(iter(c.values()))) for c in columns], float)
            degree = np.array([self.graph.degree(node) for node in nodes], float)
            rows, cols, probs = [], [], []
            for i, node in enumerate(nodes):
                for neighbor in self.graph.neighbors(node):
                    j = index[neighbor]
                    accept = min(
                        1.0, weight[j] * degree[i] / (weight[i] * degree[j])
                    )
                    rows.append(i)
                    cols.append(j)
                    probs.append((1.0 - PROTOCOL_LAZINESS) / degree[i] * accept)
            moves = scipy.sparse.csr_matrix(
                (probs, (rows, cols)), shape=(len(nodes), len(nodes))
            )
            stay = 1.0 - np.asarray(moves.sum(axis=1)).ravel()
            transition = (moves + scipy.sparse.diags(stay)).T.tocsr()
            distribution = np.zeros(len(nodes))
            distribution[index[self.origin]] = 1.0
            for _ in range(PROTOCOL_WALK_LENGTH):
                distribution = transition @ distribution
            values = [next(iter(c.values())) for c in columns]
            first = np.array([v.mean() for v in values])
            second = np.array([(v * v).mean() for v in values])
            mean = float(distribution @ first)
            variance = float(distribution @ second) - mean * mean
            self._oracle = (mean, math.sqrt(max(variance, 0.0)))
        return self._oracle

    def answers(self, tick: int, output: Any) -> list[Answer]:
        truth, sigma = self.oracle()
        result = []
        for query, nodes in sorted(output.items()):
            values = np.array([self._value_at(node) for node in nodes], float)
            n = values.size
            degraded = n < self.demand[query]
            result.append(
                Answer(
                    tick=tick,
                    query=query,
                    estimate=float(values.mean()) if n else float("nan"),
                    truth=truth,
                    epsilon=Z_95 * sigma / math.sqrt(self.demand[query]),
                    confidence=CONFIDENCE,
                    degraded=degraded,
                    # a partial slice states the half-width it achieved
                    achieved_epsilon=(
                        Z_95 * sigma / math.sqrt(n) if degraded and n else None
                    ),
                )
            )
        return result

    def _value_at(self, node: int) -> float:
        store = self.database.store(node)
        row = store.get(store.sample_uniform(self.tuple_rng))
        return float(next(iter(row.values())))

    def totals(self) -> dict[str, float]:
        stats = self.sampler.walk_stats
        ledger_total = self.sampler.ledger.total
        drops = self.sampler.fault_log.count("message_loss")
        return {
            "messages": ledger_total,
            "messages_delivered": ledger_total - drops,
            "walks_completed": stats.completed,
            "walks_launched": stats.launched,
            "protocol_drops": drops,
            "protocol_events": self.simulation.events_run,
            "protocol_attempts": stats.attempts,
            "protocol_timeouts": stats.timeouts,
        }


def build_protocol_lossy(seed: int, traced: bool) -> ProtocolRun:
    return ProtocolRun(seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], Run]
    #: measured ticks per repeat (the set-up tick comes on top)
    ticks: int
    #: a run makes at least this many full repeats, and more while its
    #: measuring time lasts, up to max_repeats
    min_repeats: int
    max_repeats: int
    #: extra set-ups (build plus first tick, no measured ticks) until a
    #: run has timed this many, so setup_s is a median of several
    min_setups: int
    #: listed in BENCHMARK.json; an unlisted workload runs only on request
    listed: bool = True


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="clean_multi",
            why=(
                "TEMPERATURE mesh, 530 nodes, 8,000 tuples rewritten every tick, "
                "four AVG queries, no faults: loads evaluators, pool, scheduler, "
                "walk kernel and db writes. Seed: walk RNG"
            ),
            build=build_clean_multi,
            ticks=200,
            min_repeats=3,
            max_repeats=12,
            min_setups=30,
            # left out of the gate so the gated workloads can run longer:
            # ten 40-second runs spread 13-15% on ticks_per_s and
            # step_mean_ms, more than a third of the largest bound (0.25),
            # and lossy_churn loads the same session layers
            listed=False,
        ),
        Workload(
            name="lossy_churn",
            why=(
                "MEMORY 820-node power-law overlay with churn, 1% hop loss, live "
                "alerts, four queries: loads redraw rounds, per-walk fault tail, "
                "snapshot rebuilds, sinks. Seed: walk and fault RNGs"
            ),
            build=build_lossy_churn,
            ticks=90,
            min_repeats=3,
            max_repeats=12,
            min_setups=16,
        ),
        Workload(
            name="large_overlay",
            why=(
                "MEMORY generator at 50,000 static nodes and tuples, two queries: "
                "the per-occasion O(N) overlay snapshot and set-up spectral work "
                "dominate. Seed: walk RNG"
            ),
            build=build_large_overlay,
            ticks=32,
            min_repeats=1,
            max_repeats=2,
            min_setups=2,
            # a tick builds two or three overlay snapshots as the seed's
            # sample sizes fall, so its host time moves with the seed by more
            # than a third of any bound a gate may set (0.25): ten seeds
            # spread 16-30% on ticks_per_s and step_mean_ms
            listed=False,
        ),
        Workload(
            name="protocol_lossy",
            why=(
                "ProtocolSampler bounce variant, 2,000-node power-law overlay, 2% "
                "loss, jitter, retries, 200+100-walk batches: the only path through "
                "protocol and sim.engine. Seed: walk and fault RNGs"
            ),
            build=build_protocol_lossy,
            ticks=40,
            min_repeats=3,
            max_repeats=12,
            min_setups=12,
        ),
    )
}
