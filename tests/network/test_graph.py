"""Tests for the mutable overlay graph."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology, ring_topology


@pytest.fixture
def triangle():
    return OverlayGraph([(0, 1), (1, 2), (0, 2)])


class TestStructure:
    def test_basic_counts(self, triangle):
        assert len(triangle) == 3
        assert triangle.n_edges() == 3
        assert triangle.degree(0) == 2

    def test_contains(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle

    def test_isolated_nodes_via_n_nodes(self):
        graph = OverlayGraph([(0, 1)], n_nodes=4)
        assert len(graph) == 4
        assert graph.degree(3) == 0
        assert not graph.is_connected()

    def test_edges_sorted_pairs(self, triangle):
        assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_neighbors_deterministic(self):
        graph = OverlayGraph([(0, 1), (0, 2), (0, 3)])
        assert graph.neighbors(0) == [1, 2, 3]


class TestMutation:
    def test_add_edge_idempotent(self, triangle):
        version = triangle.version
        triangle.add_edge(0, 1)
        assert triangle.n_edges() == 3
        assert triangle.version == version  # no-op does not bump

    def test_self_loop_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_edge(1, 1)

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)
        with pytest.raises(TopologyError):
            triangle.remove_edge(0, 1)

    def test_negative_id_rejected(self):
        with pytest.raises(TopologyError):
            OverlayGraph([(-1, 0)])

    def test_join_assigns_fresh_id(self, triangle):
        node = triangle.join(attach_to=[0, 1])
        assert node == 3
        assert triangle.has_edge(3, 0)
        assert triangle.has_edge(3, 1)

    def test_join_random_attachment(self, triangle):
        node = triangle.join(n_links=2, rng=np.random.default_rng(0))
        assert triangle.degree(node) == 2

    def test_ids_never_reused(self, triangle):
        node = triangle.join(attach_to=[0])
        triangle.leave(node)
        assert triangle.join(attach_to=[0]) == node + 1

    def test_leave_rewires_ring(self):
        """Removing a ring node must keep the graph connected via rewiring."""
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        graph.leave(3, rewire=True)
        assert graph.is_connected()
        assert 3 not in graph

    def test_leave_without_rewire_can_disconnect(self):
        graph = OverlayGraph([(0, 1), (1, 2)], n_nodes=3)
        graph.leave(1, rewire=False)
        assert not graph.is_connected()

    def test_leave_unknown_raises(self, triangle):
        with pytest.raises(TopologyError):
            triangle.leave(42)

    def test_version_bumps_on_change(self, triangle):
        before = triangle.version
        triangle.join(attach_to=[0])
        assert triangle.version > before


class TestAnalysis:
    def test_hop_distances(self):
        graph = OverlayGraph([(0, 1), (1, 2), (2, 3)])
        distances = graph.hop_distances(0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_hop_distance_cache_invalidation(self):
        graph = OverlayGraph([(0, 1), (1, 2), (2, 3)])
        assert graph.hop_distances(0)[3] == 3
        graph.add_edge(0, 3)
        assert graph.hop_distances(0)[3] == 1

    def test_hop_distances_unknown_source(self, triangle):
        with pytest.raises(TopologyError):
            triangle.hop_distances(99)

    def test_is_connected_mesh(self):
        graph = OverlayGraph(mesh_topology(30), n_nodes=30)
        assert graph.is_connected()

    def test_empty_graph_connected(self):
        assert OverlayGraph([]).is_connected()

    def test_csr_roundtrip(self):
        graph = OverlayGraph([(0, 2), (2, 5), (0, 5)], n_nodes=6)
        node_ids, offsets, targets = graph.csr()
        assert node_ids.tolist() == [0, 1, 2, 3, 4, 5]
        rebuilt = set()
        for row in range(len(node_ids)):
            for position in range(offsets[row], offsets[row + 1]):
                neighbor = node_ids[targets[position]]
                rebuilt.add((min(node_ids[row], neighbor), max(node_ids[row], neighbor)))
        assert rebuilt == {(0, 2), (2, 5), (0, 5)}

    def test_csr_after_leave_has_compact_indices(self):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        graph.leave(2)
        node_ids, offsets, targets = graph.csr()
        assert 2 not in node_ids.tolist()
        assert targets.max() < len(node_ids)

    def test_csr_reused_while_version_unchanged(self):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        first = graph.csr()
        graph.add_edge(0, 1)  # already present: no structural change
        second = graph.csr()
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda graph: graph.add_edge(0, 3),
            lambda graph: graph.remove_edge(0, 1),
            lambda graph: graph.join(attach_to=[2, 4]),
            lambda graph: graph.leave(2),
        ],
        ids=["add_edge", "remove_edge", "join", "leave"],
    )
    def test_csr_rebuilt_after_each_mutation(self, mutate):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        stale = graph.csr()
        mutate(graph)
        node_ids, offsets, targets = graph.csr()
        assert node_ids is not stale[0]
        assert node_ids.tolist() == graph.nodes()
        for row, node in enumerate(node_ids.tolist()):
            neighbors = node_ids[targets[offsets[row] : offsets[row + 1]]]
            assert neighbors.tolist() == graph.neighbors(node)

    def test_csr_arrays_are_read_only(self):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        for array in graph.csr():
            with pytest.raises(ValueError):
                array[0] = 1
        assert graph.csr()[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_copy_builds_its_own_csr(self, triangle):
        original = triangle.csr()
        clone = triangle.copy()
        cloned = clone.csr()
        assert all(a is not b for a, b in zip(original, cloned))
        assert all(np.array_equal(a, b) for a, b in zip(original, cloned))
        clone.join(attach_to=[0])
        assert triangle.csr()[0].tolist() == [0, 1, 2]
        assert clone.csr()[0].tolist() == [0, 1, 2, 3]

    def test_copy_independent(self, triangle):
        clone = triangle.copy()
        clone.join(attach_to=[0])
        assert len(clone) == 4
        assert len(triangle) == 3

    def test_copy_preserves_structure(self, triangle):
        clone = triangle.copy()
        assert clone.edges() == triangle.edges()
        assert clone.nodes() == triangle.nodes()


class TestComponents:
    def test_connected_graph_is_one_component(self):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        assert graph.components() == [[0, 1, 2, 3, 4, 5]]

    def test_fragments_enumerated_by_smallest_member(self):
        graph = OverlayGraph([(4, 5), (0, 1), (2, 3)], n_nodes=6)
        assert graph.components() == [[0, 1], [2, 3], [4, 5]]

    def test_isolated_node_is_its_own_component(self):
        graph = OverlayGraph([(0, 1)], n_nodes=3)
        assert graph.components() == [[0, 1], [2]]


class TestBridgeComponents:
    def test_noop_on_connected_graph(self):
        graph = OverlayGraph(ring_topology(5), n_nodes=5)
        assert graph.bridge_components(np.random.default_rng(0)) == []

    def test_restores_connectivity_with_minimum_edges(self):
        graph = OverlayGraph([(0, 1), (2, 3), (4, 5)], n_nodes=6)
        added = graph.bridge_components(np.random.default_rng(0))
        assert len(added) == 2  # 3 components -> 2 bridges
        assert graph.is_connected()

    def test_respects_degree_bound_when_headroom_exists(self):
        # stars: centers have degree 3, leaves degree 1
        star = [(0, 1), (0, 2), (0, 3), (10, 11), (10, 12), (10, 13)]
        graph = OverlayGraph(star, n_nodes=0)
        added = graph.bridge_components(
            np.random.default_rng(0), max_degree=2
        )
        assert graph.is_connected()
        for u, v in added:
            # bridges land on leaves (degree 1 -> 2), not the full centers
            assert u not in (0, 10) and v not in (0, 10)

    def test_connectivity_wins_when_no_headroom(self):
        # every node saturated at max_degree=1 by its own pair edge
        graph = OverlayGraph([(0, 1), (2, 3)], n_nodes=4)
        added = graph.bridge_components(
            np.random.default_rng(0), max_degree=1
        )
        assert graph.is_connected()
        assert len(added) == 1

    def test_rejects_nonpositive_max_degree(self):
        graph = OverlayGraph([(0, 1), (2, 3)], n_nodes=4)
        with pytest.raises(TopologyError, match="max_degree"):
            graph.bridge_components(np.random.default_rng(0), max_degree=0)

    def test_deterministic_in_rng(self):
        def repair() -> list:
            graph = OverlayGraph([(0, 1), (2, 3), (4, 5), (6, 7)], n_nodes=8)
            return graph.bridge_components(np.random.default_rng(42))

        assert repair() == repair()
