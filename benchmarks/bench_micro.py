"""Micro-benchmarks of the hot paths (pytest-benchmark, multi-round).

These track implementation performance rather than paper artifacts: the
vectorized walk kernel, local-store operations, expression evaluation and
a full engine snapshot step.
"""

import numpy as np
import pytest

from repro.core.engine import DigestEngine, EngineConfig
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.db.store import LocalStore
from repro.network.graph import OverlayGraph
from repro.network.topology import power_law_topology
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import uniform_weights


@pytest.fixture(scope="module")
def walk_setup():
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(1000, rng=rng), n_nodes=1000)
    context = WalkContext.from_graph(graph, uniform_weights())
    return context


def test_batch_walk_kernel(benchmark, walk_setup):
    """100 walkers x 100 steps of the vectorized Metropolis kernel."""
    context = walk_setup
    starts = np.zeros(100, dtype=np.int64)

    def run():
        return batch_walk(context, starts, 100, np.random.default_rng(1))

    benchmark(run)


def test_walk_context_snapshot(benchmark, walk_setup):
    """CSR + weight snapshot of a 1000-node overlay (per-occasion cost)."""
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(1000, rng=rng), n_nodes=1000)
    far = next(node for node in graph.nodes() if node and not graph.has_edge(0, node))

    def invalidate_csr():
        # a structural change and its undo: same topology, new version, so
        # every round pays the cold CSR build an occasion pays after churn
        graph.add_edge(0, far)
        graph.remove_edge(0, far)

    benchmark.pedantic(
        WalkContext.from_graph,
        args=(graph, uniform_weights()),
        setup=invalidate_csr,
        rounds=50,
        iterations=1,
    )


def test_store_insert_delete(benchmark):
    def run():
        store = LocalStore(("v",))
        for i in range(1000):
            store.insert(i, {"v": float(i)})
        for i in range(0, 1000, 2):
            store.delete(i)
        return len(store)

    assert benchmark(run) == 500


def test_expression_scalar_eval(benchmark):
    expression = Expression("0.5 * (memory + storage) - cpu * 2")
    row = {"memory": 1.0, "storage": 2.0, "cpu": 0.25}
    benchmark(expression.evaluate, row)


def test_expression_vectorized_eval(benchmark):
    expression = Expression("0.5 * (memory + storage) - cpu * 2")
    columns = {
        "memory": np.random.default_rng(0).normal(0, 1, 10_000),
        "storage": np.random.default_rng(1).normal(0, 1, 10_000),
        "cpu": np.random.default_rng(2).normal(0, 1, 10_000),
    }
    benchmark(expression.evaluate_columns, columns)


def test_engine_snapshot_step(benchmark):
    """One full snapshot query (repeated sampling) on a 200-node overlay."""
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(200, rng=rng), n_nodes=200)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(4):
            database.insert(node, {"v": float(rng.normal(50, 8))})
    continuous = ContinuousQuery(
        parse_query("SELECT AVG(v) FROM R"),
        Precision(delta=4.0, epsilon=2.0, confidence=0.95),
    )
    engine = DigestEngine(
        graph,
        database,
        continuous,
        origin=0,
        rng=np.random.default_rng(1),
        config=EngineConfig(scheduler="all", evaluator="repeated"),
    )
    clock = {"t": 0}

    def run():
        engine.step(clock["t"])
        clock["t"] += 1

    benchmark.pedantic(run, rounds=30, iterations=1)
