"""A fault log's per-kind counts and its trace cannot disagree.

The trace is the only record of individual faults; :class:`FaultLog`
keeps just the per-kind tally. Both are written by the one
``FaultLog.record`` call, so on a faulted run the tally must equal the
per-``kind`` count of the trace's loose ``fault`` events, and the
``faults_injected`` counter the trace drives must equal the tally's sum.
"""

from collections import Counter

import numpy as np

from repro.core.engine import EngineConfig
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession
from repro.db.relation import P2PDatabase, Schema
from repro.network.faults import CrashProcess, FaultConfig, FaultLog, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.schema import EVENT_FAULT
from repro.obs.tracer import RecordingTracer, RunMetricsSink
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import PRIORITY_CHURN, SimulationEngine
from repro.sim.metrics import RunMetrics


def _assert_agree(log: FaultLog, tracer: RecordingTracer, metrics: RunMetrics):
    traced = Counter(
        event.attrs["kind"]
        for event in tracer.trace().events
        if event.name == EVENT_FAULT
    )
    counts = log.counts()
    assert counts == dict(sorted(traced.items()))
    assert metrics.faults_injected == sum(counts.values())


def test_protocol_sampler_counts_match_trace():
    graph = OverlayGraph(mesh_topology(25), n_nodes=25)
    simulation = SimulationEngine()
    metrics = RunMetrics()
    tracer = RecordingTracer(sinks=[RunMetricsSink(metrics)])
    plan = FaultPlan(
        FaultConfig(
            message_loss=0.1,
            latency_jitter=2,
            crash_probability=0.05,
            min_nodes=12,
        ),
        rng=7,
    )
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        simulation,
        np.random.default_rng(3),
        MessageLedger(),
        ProtocolConfig(variant="bounce"),
        faults=plan,
        retry=RetryPolicy(timeout=60, max_retries=3),
        tracer=tracer,
    )
    crash = CrashProcess(graph, plan, protected={0})

    def crash_round(time):
        sampler.handle_topology_change(left=crash.step(time))

    simulation.schedule_every(
        10, crash_round, priority=PRIORITY_CHURN, start=10, until=120
    )
    sampler.run_walks(origin=0, n=30, walk_length=20, allow_partial=True)
    assert sampler.fault_log is plan.log
    counts = plan.log.counts()
    for kind in ("message_loss", "node_crash"):
        assert counts.get(kind, 0) > 0, counts
    _assert_agree(plan.log, tracer, metrics)


def test_digest_session_counts_match_trace():
    rng = np.random.default_rng(5)
    graph = OverlayGraph(mesh_topology(16), n_nodes=16)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(3):
            database.insert(node, {"v": float(rng.normal(50, 10))})
    plan = FaultPlan(FaultConfig(message_loss=0.2), rng=55)
    tracer = RecordingTracer()
    session = DigestSession(
        graph,
        database,
        origin=0,
        rng=np.random.default_rng(6),
        faults=plan,
        tracer=tracer,
    )
    session.add_query(
        ContinuousQuery(
            parse_query("SELECT AVG(v) FROM R"),
            Precision(delta=0.8, epsilon=0.8, confidence=0.85),
            duration=3,
        ),
        config=EngineConfig(scheduler="all", evaluator="independent"),
    )
    for time in range(3):
        session.step(time)
    counts = plan.log.counts()
    for kind in ("walk_lost", "sample_shortfall"):
        assert counts.get(kind, 0) > 0, counts
    _assert_agree(plan.log, tracer, session.metrics)
