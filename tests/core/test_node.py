"""Tests for one peer's Digest node: a single session serving all of the
peer's continuous queries over one shared sample pool (paper §III)."""

import numpy as np
import pytest

from repro.core.engine import DigestEngine, EngineConfig
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.sampling.pool import SamplePool
from repro.sim.engine import SimulationEngine


def _world(seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(36), n_nodes=36)
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


def _pool(graph, seed=4):
    return SamplePool(graph, np.random.default_rng(seed))


_ALL_INDEP = EngineConfig(scheduler="all", evaluator="independent")


class TestRegistration:
    def test_register_and_step(self):
        graph, database = _world()
        node = DigestSession(graph, database, 0, np.random.default_rng(1))
        qid_avg = node.add_query(_query(), _ALL_INDEP)
        qid_sum = node.add_query(
            _query("SELECT SUM(mem) FROM R", epsilon=400.0), _ALL_INDEP
        )
        assert node.query_ids() == [qid_avg, qid_sum]
        executed = node.step(0)
        assert set(executed) == {qid_avg, qid_sum}
        truth = float(database.exact_values(Expression("mem")).mean())
        assert abs(executed[qid_avg].aggregate - truth) < 5.0
        assert abs(executed[qid_sum].aggregate - truth * database.n_tuples) < 2000

    def test_unknown_origin_rejected(self):
        graph, database = _world()
        with pytest.raises(QueryError):
            DigestSession(graph, database, 10**6, np.random.default_rng(0))

    def test_results_accessible(self):
        graph, database = _world()
        node = DigestSession(graph, database, 0, np.random.default_rng(1))
        qid = node.add_query(_query(), _ALL_INDEP)
        node.step(0)
        assert len(node.runtime(qid).result) == 1


class TestSampleSharing:
    def test_shared_cache_reduces_fresh_samples(self):
        """Three identical co-scheduled queries: the shared pool draws less
        than three engines that each sample on their own."""
        graph, database = _world(seed=2)
        node = DigestSession(graph, database, 0, np.random.default_rng(3))
        for _ in range(3):
            node.add_query(_query(duration=5), _ALL_INDEP)
        for t in range(5):
            node.step(t)
        shared = node.ledger.walk_steps

        graph, database = _world(seed=2)
        ledger = MessageLedger()
        for _ in range(3):
            engine = DigestEngine(
                graph,
                database,
                _query(duration=5),
                0,
                np.random.default_rng(3),
                ledger=ledger,
                config=_ALL_INDEP,
            )
            for t in range(5):
                engine.step(t)
        assert shared < 0.6 * ledger.walk_steps

    def test_cache_counts_reuse(self):
        graph, database = _world(seed=2)
        node = DigestSession(graph, database, 0, np.random.default_rng(3))
        for _ in range(2):
            node.add_query(_query(duration=2), _ALL_INDEP)
        node.step(0)
        assert node.pool.pool_hits > 0

    def test_cache_resets_between_occasions(self):
        graph, database = _world(seed=2)
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, 5, origin=0, consumer="q0")
        pool.begin_epoch(1)
        assert pool.n_pooled == 0
        second = pool.acquire(database, 5, origin=0, consumer="q0")
        assert len(second) == 5

    def test_cache_serves_same_occasion(self):
        graph, database = _world(seed=2)
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.lease("q0").sample_tuples(database, 8, origin=0)
        again = pool.lease("q1").sample_tuples(database, 5, origin=0)
        assert [s.tuple_id for s in again] == [s.tuple_id for s in first[:5]]
        assert pool.pool_hits == 5

    def test_cache_drops_deleted_tuples(self):
        graph, database = _world(seed=2)
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, 5, origin=0, consumer="q0")
        database.delete(first[0].tuple_id)
        served = pool.acquire(database, 5, origin=0, consumer="q1")
        assert all(s.tuple_id in database for s in served)
        assert len(served) == 5

    def test_estimates_remain_accurate_with_sharing(self):
        graph, database = _world(seed=5)
        node = DigestSession(graph, database, 0, np.random.default_rng(6))
        for _ in range(3):
            node.add_query(_query(duration=6, epsilon=1.5), _ALL_INDEP)
        truth = float(database.exact_values(Expression("mem")).mean())
        for t in range(6):
            executed = node.step(t)
            assert len(executed) == 3
            for estimate in executed.values():
                assert abs(estimate.aggregate - truth) < 4.0


class TestSimulationAttachment:
    def test_attach(self):
        graph, database = _world()
        node = DigestSession(graph, database, 0, np.random.default_rng(1))
        qid = node.add_query(_query(duration=5), _ALL_INDEP)
        simulation = SimulationEngine()
        node.attach(simulation)
        simulation.run_until(10)
        assert node.runtime(qid).metrics.snapshot_queries == 5

    def test_mixed_schedulers(self):
        """PRED and ALL queries coexist; each keeps its own cadence."""
        graph, database = _world()
        node = DigestSession(graph, database, 0, np.random.default_rng(1))
        qid_all = node.add_query(_query(duration=20), _ALL_INDEP)
        qid_pred = node.add_query(
            _query(duration=20, delta=8.0),
            EngineConfig(scheduler="pred", evaluator="independent"),
        )
        for t in range(20):
            node.step(t)
        assert node.runtime(qid_all).metrics.snapshot_queries == 20
        assert node.runtime(qid_pred).metrics.snapshot_queries < 20
