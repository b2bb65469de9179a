"""Tests for the shared sample pool."""

import numpy as np
import pytest

from repro.db.relation import P2PDatabase, Schema
from repro.errors import SamplingError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.tracer import RecordingTracer
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.pool import PoolConfig, SamplePool


def _world(n=36, tuples_low=1, tuples_high=6, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(int(rng.integers(tuples_low, tuples_high))):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


def _pool(graph, seed=0, ledger=None, tracer=None, config=None):
    return SamplePool(
        graph,
        np.random.default_rng(seed),
        ledger,
        SamplerConfig(walk_length=20, continued_walks=False),
        tracer=tracer,
        config=config,
    )


class TestConfig:
    def test_defaults_valid(self):
        assert PoolConfig().max_age == 0

    def test_rejects_negative_age(self):
        with pytest.raises(SamplingError):
            PoolConfig(max_age=-1)


class TestAcquire:
    def test_identical_to_operator_when_empty(self):
        """A cold pool is RNG-transparent: same draws as a bare operator."""
        graph, database = _world()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(3),
            config=SamplerConfig(walk_length=20, continued_walks=False),
        )
        direct = operator.sample_tuples(database, 12, origin=0)
        pool = _pool(graph, seed=3)
        pool.begin_epoch(0)
        served = pool.acquire(database, 12, origin=0, consumer="q0")
        assert [s.tuple_id for s in served] == [s.tuple_id for s in direct]
        assert pool.operator.samples_drawn == 12

    def test_second_consumer_served_from_pool(self):
        graph, database = _world()
        ledger = MessageLedger()
        pool = _pool(graph, ledger=ledger)
        pool.begin_epoch(0)
        first = pool.acquire(database, 10, origin=0, consumer="q0")
        cost_after_first = ledger.total
        second = pool.acquire(database, 10, origin=0, consumer="q1")
        assert ledger.total == cost_after_first  # zero walks for q1
        assert [s.tuple_id for s in second] == [s.tuple_id for s in first]
        assert pool.pool_hits == 10
        assert pool.pool_misses == 10
        assert pool.hit_rate == pytest.approx(0.5)

    def test_same_consumer_never_resampled(self):
        """Top-ups serve only draws beyond the consumer's cursor."""
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, 8, origin=0, consumer="q0")
        # q1 over-draws, leaving 4 pooled samples q0 has not seen
        pool.acquire(database, 12, origin=0, consumer="q1")
        topup = pool.acquire(database, 6, origin=0, consumer="q0")
        seen = {s.tuple_id for s in first}
        pooled_beyond = [s.tuple_id for s in topup[:4]]
        assert pool.pool_hits == 8 + 4  # q1's 8 + q0's 4
        assert len(topup) == 6
        # the 4 pool hits are exactly q1's surplus, not q0's own draws
        assert all(t not in seen or t in pooled_beyond for t in pooled_beyond)

    def test_marginal_shortfall_only(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, 10, origin=0, consumer="q0")
        pool.acquire(database, 14, origin=0, consumer="q1")
        assert pool.pool_hits == 10
        assert pool.pool_misses == 10 + 4
        assert pool.n_pooled == 14

    def test_zero_and_negative(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        assert pool.acquire(database, 0, origin=0) == []
        with pytest.raises(SamplingError):
            pool.acquire(database, -1, origin=0)

    def test_deleted_tuples_not_served(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, 10, origin=0, consumer="q0")
        dead = {s.tuple_id for s in first[:5]}
        for tuple_id in dead:
            database.delete(tuple_id)
        live = sum(1 for s in first if s.tuple_id not in dead)
        second = pool.acquire(database, 10, origin=0, consumer="q1")
        assert all(s.tuple_id in database for s in second)
        assert pool.pool_hits == live  # only the live entries reused


class TestEpochs:
    def test_default_age_evicts_previous_tick(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, 10, origin=0, consumer="q0")
        assert pool.n_pooled == 10
        pool.begin_epoch(1)
        assert pool.n_pooled == 0
        pool.acquire(database, 10, origin=0, consumer="q1")
        assert pool.pool_hits == 0  # nothing stale was served

    def test_begin_epoch_idempotent(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, 6, origin=0, consumer="q0")
        pool.begin_epoch(0)
        assert pool.n_pooled == 6

    def test_max_age_keeps_recent_epochs(self):
        graph, database = _world()
        pool = _pool(graph, config=PoolConfig(max_age=2))
        pool.begin_epoch(0)
        pool.acquire(database, 5, origin=0, consumer="q0")
        pool.begin_epoch(2)
        assert pool.n_pooled == 5  # age 2 still within max_age
        pool.begin_epoch(3)
        assert pool.n_pooled == 0

    def test_cursors_survive_eviction(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, 5, origin=0, consumer="q0")
        pool.begin_epoch(1)
        served = pool.acquire(database, 5, origin=0, consumer="q0")
        assert len(served) == 5
        assert pool.pool_misses == 10  # all fresh both times


class TestPrefetch:
    def test_tops_up_to_target(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        drawn = pool.prefetch(database, 12, origin=0, consumers=("q0", "q1"))
        assert drawn == 12
        assert pool.n_pooled == 12
        assert pool.prefetch(database, 10, origin=0) == 0  # already covered
        # consumers then hit without any new walks
        pool.acquire(database, 12, origin=0, consumer="q0")
        pool.acquire(database, 12, origin=0, consumer="q1")
        assert pool.pool_hits == 24
        assert pool.pool_misses == 0

    def test_records_attributed_batch_span(self):
        graph, database = _world()
        tracer = RecordingTracer()
        pool = _pool(graph, tracer=tracer)
        pool.begin_epoch(0)
        pool.prefetch(database, 8, origin=0, consumers=("q1", "q0"))
        batches = tracer.trace().spans_named("shared_walk_batch")
        assert len(batches) == 1
        assert batches[0].attrs["consumers"] == "q1,q0"
        assert batches[0].attrs["n_consumers"] == 2
        assert batches[0].attrs["n_drawn"] == 8

    def test_negative_rejected(self):
        graph, database = _world()
        pool = _pool(graph)
        with pytest.raises(SamplingError):
            pool.prefetch(database, -1, origin=0)


class TestTracing:
    def test_pool_serve_spans_carry_hit_miss_split(self):
        graph, database = _world()
        tracer = RecordingTracer()
        pool = _pool(graph, tracer=tracer)
        pool.begin_epoch(0)
        pool.acquire(database, 10, origin=0, consumer="q0")
        pool.acquire(database, 6, origin=0, consumer="q1")
        serves = tracer.trace().spans_named("pool_serve")
        assert [s.attrs["consumer"] for s in serves] == ["q0", "q1"]
        assert serves[0].attrs["n_hit"] == 0
        assert serves[0].attrs["n_miss"] == 10
        assert serves[1].attrs["n_hit"] == 6
        assert serves[1].attrs["n_miss"] == 0


class TestLease:
    def test_lease_binds_consumer(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        lease_a = pool.lease("qa")
        lease_b = pool.lease("qb")
        first = lease_a.sample_tuples(database, 9, origin=0)
        second = lease_b.sample_tuples(database, 9, origin=0)
        assert [s.tuple_id for s in second] == [s.tuple_id for s in first]
        assert pool.pool_hits == 9
        assert lease_a.consumer == "qa"
        assert lease_a.pool is pool

    def test_wrapping_reuses_operator(self):
        """The pool wraps one operator; every lease draws through it."""
        graph, database = _world()
        pool = _pool(graph)
        operator = pool.operator
        pool.begin_epoch(0)
        pool.lease("q0").sample_tuples(database, 4, origin=0)
        pool.lease("q1").sample_tuples(database, 6, origin=0)
        assert pool.operator is operator
        assert operator.samples_drawn == 6


class TestInvalidateScope:
    def test_evicts_everything_and_reports_count(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.prefetch(database, 10, origin=0)
        assert pool.n_pooled == 10
        assert pool.invalidate_scope(0, "cut") == 10
        assert pool.n_pooled == 0

    def test_emits_pool_invalidate_event(self):
        from repro.obs.schema import EVENT_POOL_INVALIDATE

        graph, database = _world()
        tracer = RecordingTracer()
        pool = _pool(graph, tracer=tracer)
        pool.begin_epoch(3)
        pool.prefetch(database, 5, origin=0)
        pool.invalidate_scope(3, "heal")
        events = [
            event
            for event in tracer.trace().events
            if event.name == EVENT_POOL_INVALIDATE
        ]
        assert len(events) == 1
        assert events[0].attrs == {"n_evicted": 5, "reason": "heal"}
        assert events[0].time == 3

    def test_cursors_survive_invalidation(self):
        """Post-invalidation draws are still never re-served to a consumer."""
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, 6, origin=0, consumer="q0")
        pool.invalidate_scope(0, "cut")
        second = pool.acquire(database, 6, origin=0, consumer="q0")
        # both acquisitions drew fresh: the evicted samples were never
        # replayed (fresh draws may still coincide on tuple ids by chance)
        assert pool.pool_hits == 0
        assert pool.pool_misses == 12
        assert len(first) == 6
        assert len(second) == 6
