"""Tests for the random-walk sampling agents."""

import numpy as np
import pytest

from repro.errors import SamplingError, TopologyError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology, ring_topology
from repro.sampling.metropolis import stationary_distribution
from repro.sampling.mixing import total_variation
from repro.sampling.walker import MetropolisWalker, WalkContext, batch_walk
from repro.sampling.weights import table_weights, uniform_weights


@pytest.fixture
def mesh_context():
    graph = OverlayGraph(mesh_topology(25), n_nodes=25)
    return WalkContext.from_graph(graph, uniform_weights())


class TestWalkContext:
    def test_basic_fields(self, mesh_context):
        assert mesh_context.n_nodes == 25
        assert mesh_context.degrees.sum() == mesh_context.targets.size
        np.testing.assert_allclose(mesh_context.target_distribution().sum(), 1.0)

    def test_compact_index_roundtrip(self, mesh_context):
        for node in (0, 7, 24):
            index = mesh_context.compact_index(node)
            assert mesh_context.node_ids[index] == node

    def test_compact_index_unknown(self, mesh_context):
        with pytest.raises(SamplingError):
            mesh_context.compact_index(999)

    def test_rejects_isolated_nodes(self):
        graph = OverlayGraph([(0, 1)], n_nodes=3)
        with pytest.raises(TopologyError, match="isolated"):
            WalkContext.from_graph(graph, uniform_weights())

    def test_rejects_negative_weights(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(SamplingError):
            WalkContext.from_graph(graph, lambda node: -1.0)

    def test_graph_version_recorded(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        context = WalkContext.from_graph(graph, uniform_weights())
        assert context.graph_version == graph.version


class TestSingleWalker:
    def test_stays_on_edges(self, mesh_context):
        graph = OverlayGraph(mesh_topology(25), n_nodes=25)
        walker = MetropolisWalker(
            mesh_context, 0, np.random.default_rng(0), laziness=0.0
        )
        previous = walker.position
        for _ in range(200):
            current = walker.step()
            assert current == previous or graph.has_edge(previous, current)
            previous = current

    def test_step_counters(self, mesh_context):
        walker = MetropolisWalker(mesh_context, 0, np.random.default_rng(0))
        walker.walk(100)
        assert walker.steps_taken == 100
        # with laziness 1/2, roughly half the steps propose
        assert 20 <= walker.proposals_sent <= 80

    def test_ledger_counts_proposals(self, mesh_context):
        ledger = MessageLedger()
        walker = MetropolisWalker(
            mesh_context, 0, np.random.default_rng(0), ledger=ledger
        )
        walker.walk(100)
        assert ledger.walk_steps == walker.proposals_sent

    def test_negative_steps_rejected(self, mesh_context):
        walker = MetropolisWalker(mesh_context, 0, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            walker.walk(-1)

    def test_invalid_laziness(self, mesh_context):
        with pytest.raises(SamplingError):
            MetropolisWalker(mesh_context, 0, np.random.default_rng(0), laziness=1.0)

    def test_converges_to_uniform(self):
        """Long single walks visit nodes ~ uniformly (ergodic average)."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        context = WalkContext.from_graph(graph, uniform_weights())
        walker = MetropolisWalker(context, 0, np.random.default_rng(0))
        counts = np.zeros(16)
        walker.walk(500)  # burn-in
        for _ in range(30000):
            counts[context.compact_index(walker.step())] += 1
        empirical = counts / counts.sum()
        assert total_variation(empirical, context.target_distribution()) < 0.05


class TestBatchWalk:
    def test_zero_steps_identity(self, mesh_context):
        starts = np.array([0, 3, 5])
        ends = batch_walk(mesh_context, starts, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(ends, starts)

    def test_empty_batch(self, mesh_context):
        ends = batch_walk(
            mesh_context, np.array([], dtype=np.int64), 10, np.random.default_rng(0)
        )
        assert ends.size == 0

    def test_does_not_mutate_starts(self, mesh_context):
        starts = np.zeros(8, dtype=np.int64)
        batch_walk(mesh_context, starts, 50, np.random.default_rng(0))
        assert (starts == 0).all()

    def test_ledger_accounting(self, mesh_context):
        ledger = MessageLedger()
        batch_walk(
            mesh_context,
            np.zeros(10, dtype=np.int64),
            100,
            np.random.default_rng(0),
            ledger=ledger,
        )
        # ~half of 10*100 walker-steps are non-lazy proposals
        assert 300 <= ledger.walk_steps <= 700

    def test_negative_steps_rejected(self, mesh_context):
        with pytest.raises(SamplingError):
            batch_walk(
                mesh_context, np.zeros(2, dtype=np.int64), -1, np.random.default_rng(0)
            )

    def test_uniform_target_distribution(self):
        """Many converged walkers land ~ target-distributed (uniform)."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        context = WalkContext.from_graph(graph, uniform_weights())
        starts = np.zeros(20000, dtype=np.int64)
        ends = batch_walk(context, starts, 300, np.random.default_rng(0))
        counts = np.bincount(ends, minlength=16).astype(float)
        empirical = counts / counts.sum()
        assert total_variation(empirical, context.target_distribution()) < 0.03

    def test_nonuniform_target_distribution(self):
        """Walkers respect an arbitrary weight function (Theorem 2)."""
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        weights = {node: float(node + 1) for node in graph.nodes()}
        weight = table_weights(weights)
        context = WalkContext.from_graph(graph, weight)
        _, target = stationary_distribution(graph, weight)
        starts = np.zeros(20000, dtype=np.int64)
        ends = batch_walk(context, starts, 400, np.random.default_rng(1))
        counts = np.bincount(ends, minlength=8).astype(float)
        empirical = counts / counts.sum()
        assert total_variation(empirical, target) < 0.03

    def test_matches_single_walker_distribution(self):
        """Batch and single-step implementations sample the same chain."""
        rng = np.random.default_rng(3)
        graph = OverlayGraph(power_law_topology(40, rng=rng), n_nodes=40)
        weight = uniform_weights()
        context = WalkContext.from_graph(graph, weight)
        ends_batch = batch_walk(
            context, np.zeros(8000, dtype=np.int64), 150, np.random.default_rng(4)
        )
        singles = np.empty(8000, dtype=np.int64)
        rng_single = np.random.default_rng(5)
        for i in range(8000):
            walker = MetropolisWalker(context, 0, rng_single)
            singles[i] = context.compact_index(walker.walk(150))
        batch_hist = np.bincount(ends_batch, minlength=40) / 8000
        single_hist = np.bincount(singles, minlength=40) / 8000
        # two independent 8000-draw histograms over 40 bins have expected
        # TV ~ 0.03-0.04 even for identical chains; 0.06 flags real skew
        assert total_variation(batch_hist, single_hist) < 0.06


class TestFromSubgraph:
    def test_keeps_only_intra_scope_edges(self):
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        context = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=[0, 1, 2, 3]
        )
        assert context.node_ids.tolist() == [0, 1, 2, 3]
        # the ring arc 0-1-2-3 keeps its 3 internal edges; the wrap-around
        # edges (0,7) and (3,4) are dropped
        assert context.degrees.tolist() == [1, 2, 2, 1]

    def test_matches_from_graph_on_full_scope(self):
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        full = WalkContext.from_graph(graph, uniform_weights())
        scoped = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=graph.nodes()
        )
        assert scoped.node_ids.tolist() == full.node_ids.tolist()
        assert scoped.offsets.tolist() == full.offsets.tolist()
        assert scoped.targets.tolist() == full.targets.tolist()

    def test_rejects_empty_scope(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(SamplingError, match="no nodes"):
            WalkContext.from_subgraph(graph, uniform_weights(), nodes=[])

    def test_rejects_internally_disconnected_scope(self):
        # 0 and 2 are opposite corners of a 4-ring: scope {0, 2} has no
        # internal edges, leaving both isolated
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(TopologyError, match="isolated"):
            WalkContext.from_subgraph(graph, uniform_weights(), nodes=[0, 2])

    def test_walks_never_leave_the_scope(self):
        graph = OverlayGraph(ring_topology(10), n_nodes=10)
        context = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=[0, 1, 2, 3, 4]
        )
        rng = np.random.default_rng(0)
        starts = np.zeros(32, dtype=np.int64)
        final = batch_walk(context, starts, steps=50, rng=rng)
        sampled = {int(context.node_ids[index]) for index in final}
        assert sampled <= {0, 1, 2, 3, 4}

    def test_single_node_scope_is_allowed(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        context = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=[1]
        )
        assert context.n_nodes == 1


def _reference_batch_walk(context, start_positions, steps, rng, ledger, laziness):
    """The per-step kernel before acceptance was precomputed per edge.

    Kept verbatim as the oracle: the fast kernel must reach the same final
    positions and send the same proposals from the same RNG stream.
    """
    positions = np.array(start_positions, dtype=np.int64, copy=True)
    n_walkers = positions.size
    proposals_sent = 0
    weights = context.weights
    degrees = context.degrees
    offsets = context.offsets
    targets = context.targets
    for _ in range(steps):
        if laziness > 0.0:
            active = rng.random(n_walkers) >= laziness
            if not np.any(active):
                continue
        else:
            active = np.ones(n_walkers, dtype=bool)
        current = positions[active]
        degree_i = degrees[current]
        picks = (rng.random(current.size) * degree_i).astype(np.int64)
        proposed = targets[offsets[current] + picks]
        proposals_sent += int(current.size)
        weight_i = weights[current]
        weight_j = weights[proposed]
        ratio = np.empty(current.size, dtype=float)
        zero_mask = weight_i == 0.0
        ratio[zero_mask] = 1.0
        safe = ~zero_mask
        ratio[safe] = (weight_j[safe] * degree_i[safe]) / (
            weight_i[safe] * degrees[proposed[safe]]
        )
        accepted = rng.random(current.size) < np.minimum(1.0, ratio)
        moved = current.copy()
        moved[accepted] = proposed[accepted]
        positions[active] = moved
    ledger.record_walk_steps(proposals_sent)
    return positions


def _uniform_context():
    return WalkContext.from_graph(_power_law_graph(), uniform_weights())


def _power_law_graph():
    return OverlayGraph(
        power_law_topology(60, rng=np.random.default_rng(2)), n_nodes=60
    )


def _content_size_context():
    """Content-size weights where a third of the fragments are empty."""
    graph = _power_law_graph()
    sizes = {
        node: float(node % 3 == 0) * (1 + node % 7) for node in graph.nodes()
    }
    return WalkContext.from_graph(graph, table_weights(sizes))


def _subgraph_context():
    graph = _power_law_graph()
    scope = sorted(graph.hop_distances(0).items(), key=lambda item: item[1])
    return WalkContext.from_subgraph(
        graph, uniform_weights(), nodes=[node for node, _ in scope[:30]]
    )


class TestKernelBitIdentity:
    CONTEXTS = {
        "uniform": _uniform_context,
        "content_size": _content_size_context,
        "subgraph": _subgraph_context,
    }

    @pytest.mark.parametrize("laziness", [0.0, 0.5])
    @pytest.mark.parametrize("kind", sorted(CONTEXTS))
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_reference_kernel(self, kind, laziness, seed):
        context = self.CONTEXTS[kind]()
        starts = np.random.default_rng(seed + 100).integers(
            context.n_nodes, size=23
        )
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast_ledger = MessageLedger()
        slow_ledger = MessageLedger()
        fast = batch_walk(context, starts, 80, fast_rng, fast_ledger, laziness)
        slow = _reference_batch_walk(
            context, starts, 80, slow_rng, slow_ledger, laziness
        )
        np.testing.assert_array_equal(fast, slow)
        assert fast_ledger.walk_steps == slow_ledger.walk_steps
        # both consumed exactly the same stream
        assert fast_rng.random() == slow_rng.random()

    @pytest.mark.parametrize("kind", sorted(CONTEXTS))
    def test_accept_matches_per_slot_formula(self, kind):
        context = self.CONTEXTS[kind]()
        assert context.accept.size == context.targets.size
        for i in range(context.n_nodes):
            for slot in range(context.offsets[i], context.offsets[i + 1]):
                j = context.targets[slot]
                w_i, w_j = context.weights[i], context.weights[j]
                d_i, d_j = context.degrees[i], context.degrees[j]
                if w_i == 0.0:
                    expected = 1.0
                else:
                    expected = min(1.0, (w_j * d_i) / (w_i * d_j))
                assert context.accept[slot] == expected
