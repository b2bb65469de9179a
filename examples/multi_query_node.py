"""A Digest node multiplexing several continuous queries.

The paper's architecture gives every peer its own Digest instance serving
"the continuous queries received from the local user" (Section III).
:class:`repro.core.session.DigestSession` is that instance: it runs many
queries over one shared sample pool, and — because uniform tuple samples
are query-agnostic — queries evaluated at the same occasion *reuse* each
other's samples, drawn in one coalesced walk batch.

This example registers four queries with different shapes over one
workload and reports how much the sharing saved.

Run:  python examples/multi_query_node.py
"""

import numpy as np

from repro import DigestSession, EngineConfig, Precision
from repro.core.query import ContinuousQuery, parse_query
from repro.datasets.temperature import TemperatureConfig, TemperatureDataset


def main() -> None:
    instance = TemperatureDataset(TemperatureConfig().scaled(0.08), seed=9).build()
    sigma = instance.config.expected_sigma
    steps = min(instance.n_steps, 60)
    print(
        f"workload: {len(instance.graph)} nodes, "
        f"{instance.database.n_tuples} tuples, {steps} steps"
    )

    session = DigestSession(
        instance.graph,
        instance.database,
        origin=0,
        rng=np.random.default_rng(13),
    )

    queries = {
        "area average": (
            "SELECT AVG(temperature) FROM R",
            Precision(delta=sigma, epsilon=0.25 * sigma, confidence=0.95),
            EngineConfig(scheduler="pred", evaluator="repeated"),
        ),
        "heat-wave count": (
            "SELECT COUNT(temperature) FROM R WHERE temperature > 70",
            Precision(delta=30.0, epsilon=40.0, confidence=0.9),
            EngineConfig(scheduler="all", evaluator="independent"),
        ),
        "degree-sum": (
            "SELECT SUM(temperature) FROM R",
            Precision(delta=800.0, epsilon=1200.0, confidence=0.95),
            EngineConfig(scheduler="pred", evaluator="repeated"),
        ),
        "cold spots": (
            "SELECT COUNT(temperature) FROM R WHERE temperature < 50",
            Precision(delta=30.0, epsilon=40.0, confidence=0.9),
            EngineConfig(scheduler="all", evaluator="independent"),
        ),
    }
    handles = {
        name: session.add_query(
            ContinuousQuery(parse_query(text), precision, duration=steps),
            config,
        )
        for name, (text, precision, config) in queries.items()
    }

    for t in range(steps):
        instance.step(t)
        executed = session.step(t)
        if t % 20 == 0 and executed:
            summary = ", ".join(
                f"{name}={executed[qid].aggregate:,.1f}"
                for name, qid in handles.items()
                if qid in executed
            )
            print(f"t={t:3d}  {summary}")

    print("\nper-query cost:")
    for name, qid in handles.items():
        metrics = session.runtime(qid).metrics
        print(
            f"  {name:16s} {metrics.snapshot_queries:3d} snapshots, "
            f"{metrics.samples_total:5d} samples"
        )
    print(
        f"\nshared-occasion sampling saved "
        f"{session.pool.pool_hits} tuple draws "
        f"({session.ledger.total} total messages)"
    )


if __name__ == "__main__":
    main()
