"""Tests for the multi-query Digest session (pool + coalesced batches)."""

import numpy as np
import pytest

from repro.core.engine import DigestEngine, EngineConfig
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, QuerySet
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.analysis import (
    shared_walk_attribution,
    verify_trace_consistency,
)
from repro.obs.tracer import RecordingTracer
from repro.sim.engine import SimulationEngine


def _world(seed=0, n_nodes=36):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("mem", "cpu")), graph.nodes())
    for node in graph.nodes():
        for _ in range(5):
            database.insert(
                node,
                {"mem": float(rng.normal(50, 8)), "cpu": float(rng.uniform(0, 4))},
            )
    return graph, database


def _query(text="SELECT AVG(mem) FROM R", delta=4.0, epsilon=2.0, duration=10):
    return ContinuousQuery(
        parse_query(text), Precision(delta, epsilon, 0.95), duration=duration
    )


_ALL_INDEP = EngineConfig(scheduler="all", evaluator="independent")


class TestRegistration:
    def test_auto_ids_and_lookup(self):
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        assert session.add_query(_query(), _ALL_INDEP) == "q0"
        assert session.add_query(_query(), _ALL_INDEP) == "q1"
        assert session.query_ids() == ["q0", "q1"]
        assert session.runtime("q0").continuous_query.precision.epsilon == 2.0
        with pytest.raises(QueryError):
            session.runtime("nope")

    def test_duplicate_and_comma_ids_rejected(self):
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        session.add_query(_query(), query_id="load")
        with pytest.raises(QueryError):
            session.add_query(_query(), query_id="load")
        with pytest.raises(QueryError):
            session.add_query(_query(), query_id="a,b")

    def test_unknown_origin_rejected(self):
        graph, database = _world()
        with pytest.raises(QueryError):
            DigestSession(graph, database, 10**6, np.random.default_rng(0))

    def test_query_set_registration(self):
        queries = QuerySet()
        assert queries.add(_query()) == "q0"
        assert queries.add(_query(), query_id="sum") == "sum"
        with pytest.raises(QueryError):
            queries.add(_query(), query_id="sum")
        assert len(queries) == 2

        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        assert session.add_query_set(queries) == ["q0", "sum"]
        assert session.query_ids() == ["q0", "sum"]


class TestSharedSampling:
    def test_coalesced_session_is_cheaper_than_solo_engines(self):
        """Co-resident overlapping queries share walks: >=30% fewer messages."""
        epsilons = (1.5, 2.0, 2.5, 3.0)

        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        for eps in epsilons:
            session.add_query(_query(epsilon=eps, duration=5), _ALL_INDEP)
        for t in range(5):
            session.step(t)
        shared_cost = session.ledger.total
        assert session.batches_coalesced > 0
        assert session.pool.pool_hits > 0

        solo_cost = 0
        for i, eps in enumerate(epsilons):
            graph, database = _world(seed=2)
            engine = DigestEngine(
                graph,
                database,
                _query(epsilon=eps, duration=5),
                0,
                np.random.default_rng(100 + i),
                config=_ALL_INDEP,
            )
            for t in range(5):
                engine.step(t)
            solo_cost += engine.ledger.total

        assert shared_cost < 0.7 * solo_cost

    def test_every_query_stays_accurate(self):
        graph, database = _world(seed=5)
        session = DigestSession(graph, database, 0, np.random.default_rng(6))
        for eps in (1.5, 2.0, 2.5):
            session.add_query(_query(epsilon=eps, duration=6), _ALL_INDEP)
        truth = float(database.exact_values(Expression("mem")).mean())
        for t in range(6):
            executed = session.step(t)
            assert len(executed) == 3
            for estimate in executed.values():
                assert abs(estimate.aggregate - truth) < 4.0

    def test_mixed_aggregates_share_the_pool(self):
        """Uniform tuple samples are query-agnostic: AVG and SUM share."""
        graph, database = _world(seed=7)
        session = DigestSession(graph, database, 0, np.random.default_rng(8))
        q_avg = session.add_query(_query(duration=3), _ALL_INDEP)
        q_sum = session.add_query(
            _query("SELECT SUM(mem) FROM R", epsilon=400.0, duration=3),
            _ALL_INDEP,
        )
        truth = float(database.exact_values(Expression("mem")).mean())
        for t in range(3):
            executed = session.step(t)
            assert set(executed) == {q_avg, q_sum}
            assert abs(executed[q_avg].aggregate - truth) < 5.0
            assert (
                abs(executed[q_sum].aggregate - truth * database.n_tuples)
                < 2000
            )
        assert session.pool.pool_hits > 0

    def test_single_query_session_never_coalesces(self):
        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        qid = session.add_query(_query(duration=5), _ALL_INDEP)
        for t in range(5):
            session.step(t)
        assert session.batches_coalesced == 0
        assert len(session.runtime(qid).result) == 5

    def test_notifications_are_per_query(self):
        graph, database = _world(seed=9)
        session = DigestSession(graph, database, 0, np.random.default_rng(10))
        qid = session.add_query(_query(duration=3), _ALL_INDEP)
        session.add_query(_query(duration=3), _ALL_INDEP)
        fired = []
        session.subscribe(qid, fired.append)
        session.step(0)
        assert len(fired) == 1
        assert fired[0].time == 0


class TestPerQueryMetrics:
    def test_snapshot_counts_are_scoped(self):
        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        q_all = session.add_query(_query(duration=20), _ALL_INDEP)
        q_pred = session.add_query(
            _query(duration=20, delta=8.0),
            EngineConfig(scheduler="pred", evaluator="independent"),
        )
        for t in range(20):
            session.step(t)
        all_runs = session.runtime(q_all).metrics.snapshot_queries
        pred_runs = session.runtime(q_pred).metrics.snapshot_queries
        assert all_runs == 20
        assert pred_runs < 20
        assert session.metrics.snapshot_queries == all_runs + pred_runs

    def test_pool_counters_decompose_across_queries(self):
        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        qids = [
            session.add_query(_query(epsilon=eps, duration=4), _ALL_INDEP)
            for eps in (1.5, 2.0, 2.5)
        ]
        for t in range(4):
            session.step(t)
        per_query_hits = sum(
            session.runtime(qid).metrics.pool_hits for qid in qids
        )
        per_query_misses = sum(
            session.runtime(qid).metrics.pool_misses for qid in qids
        )
        assert per_query_hits == session.metrics.pool_hits
        assert per_query_misses == session.metrics.pool_misses
        assert session.metrics.pool_hits == session.pool.pool_hits
        assert session.metrics.pool_misses == session.pool.pool_misses


class TestTraceAttribution:
    def _faulted_traced_run(self):
        graph, database = _world(seed=4)
        tracer = RecordingTracer(meta={"experiment": "multi-query-faults"})
        faults = FaultPlan(
            FaultConfig(message_loss=0.01), np.random.default_rng(99)
        )
        session = DigestSession(
            graph,
            database,
            0,
            np.random.default_rng(5),
            faults=faults,
            tracer=tracer,
        )
        qids = [
            session.add_query(_query(epsilon=eps, duration=4), _ALL_INDEP)
            for eps in (1.5, 2.5)
        ]
        for t in range(4):
            session.step(t)
        return session, tracer, qids

    def test_trace_accounts_for_faulted_multi_query_run(self):
        """The ISSUE acceptance gate: trace == live, exactly, under faults."""
        session, tracer, _ = self._faulted_traced_run()
        assert verify_trace_consistency(tracer.trace(), session.metrics) == []

    def test_shared_batches_attribute_every_consumer(self):
        session, tracer, qids = self._faulted_traced_run()
        trace = tracer.trace()
        batches = [s for s in trace.spans if s.name == "shared_walk_batch"]
        assert batches
        for span in batches:
            consumers = str(span.attrs["consumers"]).split(",")
            assert set(consumers) == set(qids)
        attribution = shared_walk_attribution(trace)
        for qid in qids:
            assert attribution[qid]["shared_batches"] == len(batches)
            assert attribution[qid]["pool_hits"] > 0


class TestSimulationAttachment:
    def test_attach_steps_all_queries(self):
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        qid = session.add_query(_query(duration=5), _ALL_INDEP)
        late = session.add_query(
            ContinuousQuery(
                parse_query("SELECT AVG(mem) FROM R"),
                Precision(4.0, 2.0, 0.95),
                start_time=2,
                duration=3,
            ),
            _ALL_INDEP,
        )
        simulation = SimulationEngine()
        session.attach(simulation)
        simulation.run_until(10)
        assert session.runtime(qid).metrics.snapshot_queries == 5
        assert session.runtime(late).metrics.snapshot_queries == 3


class TestSingleQueryEquivalence:
    def test_session_matches_engine_estimates(self):
        """One query through the session == the historical engine, exactly."""
        graph, database = _world(seed=2)
        engine = DigestEngine(
            graph,
            database,
            _query(duration=5),
            0,
            np.random.default_rng(3),
            config=_ALL_INDEP,
        )
        engine_estimates = [engine.step(t).aggregate for t in range(5)]

        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        qid = session.add_query(_query(duration=5), _ALL_INDEP)
        session_estimates = [session.step(t)[qid].aggregate for t in range(5)]

        assert session_estimates == engine_estimates
