"""Tests for the sampling operator S."""

import numpy as np
import pytest

from repro.db.relation import P2PDatabase, Schema
from repro.errors import SamplingError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology
from repro.sampling.mixing import total_variation
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.weights import table_weights, uniform_weights


def _world(n=36, tuples_low=1, tuples_high=6, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(int(rng.integers(tuples_low, tuples_high))):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


class TestConfig:
    def test_defaults_valid(self):
        SamplerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"laziness": 1.0},
            {"walk_length": 0},
            {"reset_length": 0},
            {"recompute_drift": 0.0},
            {"length_policy": "bogus"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(SamplingError):
            SamplerConfig(**kwargs)


class TestNodeSampling:
    def test_respects_weight_function(self):
        graph, _ = _world()
        weights = {node: 1.0 if node < 18 else 3.0 for node in graph.nodes()}
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            config=SamplerConfig(gamma=0.02, continued_walks=False),
        )
        samples = operator.sample_nodes(table_weights(weights), 6000, origin=0)
        counts = np.zeros(36)
        for node in samples:
            counts[node] += 1
        target = np.array([weights[n] for n in range(36)])
        target = target / target.sum()
        assert total_variation(counts / counts.sum(), target) < 0.05

    def test_zero_samples(self):
        graph, _ = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        assert operator.sample_nodes(uniform_weights(), 0, origin=0) == []

    def test_negative_samples_rejected(self):
        graph, _ = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            operator.sample_nodes(uniform_weights(), -1, origin=0)

    def test_unknown_origin_rejected(self):
        graph, _ = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            operator.sample_nodes(uniform_weights(), 1, origin=999)

    def test_fixed_walk_length_used(self):
        graph, _ = _world()
        ledger = MessageLedger()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            ledger,
            SamplerConfig(walk_length=40, continued_walks=False, laziness=0.0),
        )
        operator.sample_nodes(uniform_weights(), 10, origin=0)
        assert ledger.walk_steps == 400  # every step proposes at laziness 0

    def test_continued_walks_cheaper(self):
        graph, database = _world(64)
        costs = {}
        for continued in (True, False):
            ledger = MessageLedger()
            operator = SamplingOperator(
                graph,
                np.random.default_rng(0),
                ledger,
                SamplerConfig(continued_walks=continued),
            )
            for _ in range(4):
                operator.sample_nodes(uniform_weights(), 20, origin=0)
                if not continued:
                    operator.reset_pool()
            costs[continued] = ledger.walk_steps
        assert costs[True] < costs[False]

    def test_pool_survives_and_prunes_on_churn(self):
        graph, database = _world(49)
        operator = SamplingOperator(
            graph, np.random.default_rng(0), config=SamplerConfig()
        )
        operator.sample_nodes(uniform_weights(), 10, origin=0)
        assert operator._pool_nodes  # continued pool populated
        # remove a sampled node; the pool entry must not be reused
        victim = operator._pool_nodes[0]
        graph.leave(victim)
        samples = operator.sample_nodes(uniform_weights(), 10, origin=0)
        assert victim not in samples

    def test_sample_returns_counted(self):
        graph, _ = _world()
        ledger = MessageLedger()
        operator = SamplingOperator(graph, np.random.default_rng(0), ledger)
        operator.sample_nodes(uniform_weights(), 5, origin=0)
        assert ledger.sample_returns > 0

    def test_eigengap_cached_until_drift(self):
        graph, _ = _world(49)
        operator = SamplingOperator(graph, np.random.default_rng(0))
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        first_gap = operator.last_eigengap
        # tiny change: cache should persist (drift below threshold)
        graph.join(attach_to=[0, 1])
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert operator.last_eigengap == first_gap
        operator.invalidate_walk_length_cache()
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert operator.last_eigengap is not None

    def test_theorem3_policy_runs(self):
        graph, _ = _world(25)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            config=SamplerConfig(length_policy="theorem3", gamma=0.1),
        )
        samples = operator.sample_nodes(uniform_weights(), 5, origin=0)
        assert len(samples) == 5


class TestTupleSampling:
    def test_two_stage_uniform_over_tuples(self):
        """Two-stage sampling makes every tuple ~equally likely."""
        graph, database = _world(25, tuples_low=1, tuples_high=8, seed=2)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(3),
            config=SamplerConfig(gamma=0.02, continued_walks=False),
        )
        counts: dict[int, int] = {}
        for sample in operator.sample_tuples(database, 8000, origin=0):
            counts[sample.tuple_id] = counts.get(sample.tuple_id, 0) + 1
        n = database.n_tuples
        empirical = np.array([counts.get(t, 0) for t in range(n)], dtype=float)
        empirical /= empirical.sum()
        assert total_variation(empirical, np.full(n, 1.0 / n)) < 0.08

    def test_sample_row_matches_database(self):
        graph, database = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        for sample in operator.sample_tuples(database, 10, origin=0):
            assert database.locate(sample.tuple_id) == sample.node
            assert database.read(sample.tuple_id) == sample.row

    def test_empty_relation_rejected(self):
        graph = OverlayGraph(mesh_topology(9), n_nodes=9)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            operator.sample_tuples(database, 1, origin=0)

    def test_empty_nodes_skipped(self):
        """Nodes with no tuples have zero weight and yield no samples."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node in range(8):  # only half the nodes hold data
            database.insert(node, {"v": 1.0})
        operator = SamplingOperator(graph, np.random.default_rng(0))
        samples = operator.sample_tuples(database, 50, origin=0)
        assert len(samples) == 50
        assert all(s.node < 8 for s in samples)

    def test_cluster_sample_returns_whole_fragment(self):
        graph, database = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        node, batch = operator.cluster_sample(database, origin=0)
        assert len(batch) == len(database.store(node))
        assert all(s.node == node for s in batch)


class TestPartitionScoping:
    def _partitioned_world(self, n=30, seed=0, fractions=(0.5, 0.5)):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        graph, database = _world(n=n, seed=seed)
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(
                    PartitionEpisode(
                        start=0, duration=10, fractions=fractions
                    ),
                )
            ),
            rng=seed + 3,
        )
        plan.step(0, graph)
        return graph, database, plan

    def test_samples_confined_to_origin_region(self):
        graph, database, plan = self._partitioned_world()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=30, continued_walks=False),
            partitions=plan,
        )
        origin = 0
        scope = set(plan.reachable(graph, origin))
        assert len(scope) < len(graph)
        sampled = operator.sample_nodes(uniform_weights(), 40, origin)
        assert set(sampled) <= scope

    def test_singleton_scope_degenerates_to_origin(self):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        # two nodes, one edge: a 50/50 cut always isolates the origin
        graph = OverlayGraph([(0, 1)], n_nodes=2)
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(PartitionEpisode(start=0, duration=5),)
            ),
            rng=0,
        )
        plan.step(0, graph)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=5, continued_walks=False),
            partitions=plan,
        )
        assert operator.sample_nodes(uniform_weights(), 4, 0) == [0, 0, 0, 0]

    def test_inactive_plan_is_rng_transparent(self):
        """An idle partition plan must not perturb the walk draws."""
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        def draws(with_plan: bool) -> list[int]:
            graph, database = _world(seed=4)
            plan = None
            if with_plan:
                plan = PartitionPlan(
                    PartitionSchedule(
                        episodes=(PartitionEpisode(start=50, duration=5),)
                    ),
                    rng=9,
                )
                plan.step(0, graph)
            operator = SamplingOperator(
                graph,
                np.random.default_rng(7),
                config=SamplerConfig(walk_length=20, continued_walks=False),
                partitions=plan,
            )
            return operator.sample_nodes(uniform_weights(), 15, 0)

        assert draws(False) == draws(True)

    def test_full_sampling_resumes_after_heal(self):
        graph, database, plan = self._partitioned_world()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=30, continued_walks=False),
            partitions=plan,
        )
        plan.step(10, graph)  # heal
        assert not plan.active
        sampled = operator.sample_nodes(uniform_weights(), 60, 0)
        # walks roam the whole overlay again
        assert len(set(sampled)) > len(graph) // 2


class TestSnapshotLifetime:
    """One walk context per tuple draw; a fresh one for every other call."""

    @staticmethod
    def _count_builds(monkeypatch, attr):
        from repro.sampling.walker import WalkContext

        built = []
        original = getattr(WalkContext, attr)

        def counting(*args, **kwargs):
            context = original(*args, **kwargs)
            built.append(context)
            return context

        monkeypatch.setattr(WalkContext, attr, staticmethod(counting))
        return built

    @staticmethod
    def _count_rounds(monkeypatch, operator):
        rounds = []
        original = operator.sample_nodes

        def counting(weight, n, origin):
            rounds.append(n)
            return original(weight, n, origin)

        monkeypatch.setattr(operator, "sample_nodes", counting)
        return rounds

    @staticmethod
    def _lossy_operator(graph, partitions=None):
        from repro.network.faults import FaultConfig, FaultPlan

        return SamplingOperator(
            graph,
            np.random.default_rng(0),
            config=SamplerConfig(walk_length=30),
            faults=FaultPlan(FaultConfig(message_loss=0.03), rng=1),
            partitions=partitions,
        )

    def test_redraw_rounds_share_one_context(self, monkeypatch):
        graph, database = _world()
        built = self._count_builds(monkeypatch, "from_graph")
        operator = self._lossy_operator(graph)
        rounds = self._count_rounds(monkeypatch, operator)
        operator.sample_tuples(database, 20, origin=0, allow_partial=True)
        assert len(rounds) >= 2
        assert len(built) == 1

    def test_direct_node_draws_take_fresh_snapshots(self, monkeypatch):
        graph, _ = _world()
        built = self._count_builds(monkeypatch, "from_graph")
        operator = SamplingOperator(graph, np.random.default_rng(0))
        operator.sample_nodes(uniform_weights(), 3, origin=0)
        operator.sample_nodes(uniform_weights(), 3, origin=0)
        assert len(built) == 2

    def test_next_draw_sees_insert_at_empty_node(self, monkeypatch):
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node in range(8):
            database.insert(node, {"v": 1.0})
        built = self._count_builds(monkeypatch, "from_graph")
        operator = SamplingOperator(graph, np.random.default_rng(0))
        operator.sample_tuples(database, 5, origin=0)
        version = graph.version
        database.insert(12, {"v": 2.0})
        operator.sample_tuples(database, 5, origin=0)
        assert graph.version == version  # the overlay itself is unchanged
        before, after = built
        index = before.compact_index(12)
        assert before.weights[index] == 0.0
        assert after.weights[index] == 1.0

    def test_partition_rounds_share_the_scoped_context(self, monkeypatch):
        graph, database, plan = TestPartitionScoping()._partitioned_world()
        origin = next(
            node for node in graph.nodes() if len(plan.reachable(graph, node)) > 4
        )
        scope = set(plan.reachable(graph, origin))
        assert len(scope) < len(graph)
        full = self._count_builds(monkeypatch, "from_graph")
        scoped = self._count_builds(monkeypatch, "from_subgraph")
        operator = self._lossy_operator(graph, partitions=plan)
        rounds = self._count_rounds(monkeypatch, operator)
        samples = operator.sample_tuples(
            database, 20, origin=origin, allow_partial=True
        )
        assert len(rounds) >= 2
        assert (len(full), len(scoped)) == (0, 1)
        assert {sample.node for sample in samples} <= scope

    def test_origin_alone_still_samples_itself(self, monkeypatch):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        graph = OverlayGraph([(0, 1)], n_nodes=2)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node in graph.nodes():
            database.insert(node, {"v": float(node)})
        plan = PartitionPlan(
            PartitionSchedule(episodes=(PartitionEpisode(start=0, duration=5),)),
            rng=0,
        )
        plan.step(0, graph)
        built = self._count_builds(monkeypatch, "from_subgraph")
        operator = self._lossy_operator(graph, partitions=plan)
        assert operator.sample_nodes(uniform_weights(), 4, 0) == [0] * 4
        samples = operator.sample_tuples(database, 4, origin=0)
        assert [sample.node for sample in samples] == [0] * 4
        assert built == []
