"""Whole-stack integration scenarios.

Each test wires many subsystems together the way a deployment would and
asserts cross-cutting invariants (accounting consistency, oracle
tracking, guarantee plausibility) rather than per-module behavior.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    DigestSession,
    EngineConfig,
    Expression,
    Precision,
    parse_query,
)
from repro.core.query import ContinuousQuery
from repro.core.threshold import ThresholdMonitor, ThresholdState
from repro.datasets.memory import MemoryConfig, MemoryDataset
from repro.datasets.temperature import TemperatureConfig, TemperatureDataset
from repro.db.aggregates import exact_aggregate


class TestChurningGridScenario:
    """A scheduler node watching a churning computing grid."""

    @pytest.fixture(scope="class")
    def scenario(self):
        config = dataclasses.replace(
            MemoryConfig().scaled(0.12), leave_probability=0.02
        )
        instance = MemoryDataset(config, seed=11).build()
        origin = instance.graph.nodes()[0]
        instance.churn.protect(origin)
        session = DigestSession(
            instance.graph,
            instance.database,
            origin,
            np.random.default_rng(12),
        )
        sigma = config.expected_sigma
        qid_avg = session.add_query(
            ContinuousQuery(
                parse_query("SELECT AVG(available_memory) FROM R"),
                Precision(delta=sigma, epsilon=0.4 * sigma, confidence=0.95),
                duration=30,
            ),
            EngineConfig(scheduler="pred", evaluator="repeated"),
        )
        qid_count = session.add_query(
            ContinuousQuery(
                parse_query(
                    "SELECT COUNT(available_memory) FROM R "
                    "WHERE available_memory > 90"
                ),
                Precision(delta=15.0, epsilon=20.0, confidence=0.9),
                duration=30,
            ),
            EngineConfig(scheduler="all", evaluator="independent"),
        )
        notifications = []
        session.subscribe(qid_avg, notifications.append)
        monitor = ThresholdMonitor(
            threshold=95.0, confidence=0.9
        )
        avg_errors = []
        count_errors = []
        for t in range(30):
            instance.step(t)
            executed = session.step(t)
            if qid_avg in executed:
                monitor.offer(executed[qid_avg])
                avg_errors.append(
                    abs(executed[qid_avg].aggregate - instance.true_average())
                )
            if qid_count in executed:
                query = session.runtime(qid_count).continuous_query.query
                truth = exact_aggregate(
                    instance.database, query.op, query.expression, query.predicate
                )
                count_errors.append(
                    abs(executed[qid_count].aggregate - truth)
                )
        return {
            "instance": instance,
            "session": session,
            "qid_avg": qid_avg,
            "qid_count": qid_count,
            "notifications": notifications,
            "monitor": monitor,
            "avg_errors": avg_errors,
            "count_errors": count_errors,
        }

    def test_churn_happened(self, scenario):
        assert scenario["instance"].nodes_left > 0

    def test_avg_tracked_truth(self, scenario):
        assert float(np.mean(scenario["avg_errors"])) < 2.0 * 0.4 * 10.0

    def test_filtered_count_tracked_truth(self, scenario):
        assert float(np.mean(scenario["count_errors"])) < 40.0

    def test_accounting_consistent(self, scenario):
        session = scenario["session"]
        for qid in session.query_ids():
            runtime = session.runtime(qid)
            metrics = runtime.metrics
            assert metrics.samples_total == (
                metrics.samples_fresh + metrics.samples_retained
            )
            assert metrics.snapshot_queries == len(runtime.result)
        assert session.ledger.total > 0

    def test_scheduler_divergence(self, scenario):
        """PRED skipped; ALL did not."""
        session = scenario["session"]
        count_runtime = session.runtime(scenario["qid_count"])
        assert count_runtime.metrics.snapshot_queries == 30
        avg_runtime = session.runtime(scenario["qid_avg"])
        assert avg_runtime.metrics.snapshot_queries < 30

    def test_notifications_are_sparse(self, scenario):
        runtime = scenario["session"].runtime(scenario["qid_avg"])
        updates = len(runtime.result)
        assert 1 <= len(scenario["notifications"]) <= updates

    def test_threshold_monitor_settled(self, scenario):
        assert scenario["monitor"].state is not ThresholdState.UNKNOWN


class TestWeatherScenarioWithRevision:
    """TEMPERATURE with forward revision: retrospective accuracy improves."""

    def test_revisions_reduce_retrospective_error(self):
        config = TemperatureConfig().scaled(0.06)
        instance = TemperatureDataset(config, seed=21).build()
        from repro.core.engine import DigestEngine

        engine = DigestEngine(
            instance.graph,
            instance.database,
            ContinuousQuery(
                parse_query("SELECT AVG(temperature) FROM R"),
                Precision(delta=8.0, epsilon=1.0, confidence=0.95),
                duration=40,
            ),
            origin=0,
            rng=np.random.default_rng(22),
            config=EngineConfig(
                scheduler="all", evaluator="repeated", forward_revision=True
            ),
        )
        truths = {}
        for t in range(40):
            instance.step(t)
            if engine.step(t) is not None:
                truths[t] = instance.true_average()
        revised = [r for r in engine.result.updates if r.was_revised]
        assert revised, "expected at least one retrospective revision"
        original_errors = []
        revised_errors = []
        for record in revised:
            truth = truths[record.time]
            original_errors.append(abs(record.original_estimate - truth))
            revised_errors.append(abs(record.estimate - truth))
        # on average the revision must not hurt (and typically helps)
        assert float(np.mean(revised_errors)) <= float(
            np.mean(original_errors)
        ) * 1.15
