"""Protocol runtime under partitions and health-aware routing.

Exercises the correlated-failure path end to end at the message layer:
cross-region deliveries drop silently at ``_transmit``, the origin's
supervision feeds the first-hop breakers, correlated timeouts trip them,
tripped links are skipped (or the whole walk fast-fails honestly), the
partition detector fires on the correlation, and after the heal the
half-open probes re-admit the links one walk at a time.
"""

import numpy as np
import pytest

from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.health import CLOSED, HealthConfig
from repro.network.messaging import MessageLedger
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import mesh_topology
from repro.obs.tracer import RecordingTracer
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import PRIORITY_CHURN, SimulationEngine


def _partitioned_sampler(seed=0, duration=40, health=None, n_nodes=16):
    """A sampler on a mesh whose overlay is cut from t=0 to ``duration``.

    The plan is stepped every simulator tick (like a driver would), so
    walks launched before the heal see the cut and walks launched after
    it see the healed overlay.
    """
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    simulation = SimulationEngine()
    ledger = MessageLedger()
    plan = PartitionPlan(
        PartitionSchedule(
            episodes=(PartitionEpisode(start=0, duration=duration),)
        ),
        rng=seed,
    )
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        simulation,
        np.random.default_rng(seed),
        ledger,
        ProtocolConfig(variant="bounce"),
        retry=RetryPolicy(timeout=15, max_retries=1),
        partitions=plan,
        health=health,
    )
    simulation.schedule_every(
        1,
        lambda t: plan.step(t, graph),
        priority=PRIORITY_CHURN,
        start=0,
        until=duration + 20,
    )
    return sampler, plan, graph, simulation


class TestPartitionedDelivery:
    def test_cross_region_messages_drop_as_partition_drops(self):
        sampler, plan, graph, _ = _partitioned_sampler()
        sampled = sampler.run_walks(
            origin=0, n=20, walk_length=6, allow_partial=True
        )
        counts = sampler.fault_log.counts()
        assert counts["partition_drop"] > 0
        # dropped attempts die by origin-side timeout, never an exception
        assert counts["walk_timeout"] > 0
        stats = sampler.walk_stats
        assert stats.failed > 0
        assert len(sampled) == stats.completed
        # completed walks never left the origin's region
        scope = set(plan.reachable(graph, 0)) if plan.active else None
        if scope is not None:
            assert set(sampled) <= scope

    def test_paid_for_but_dropped(self):
        """A partition drop is silence, not refusal: the sender still
        pays for the message (it was sent), the receiver never runs."""
        sampler, _, _, _ = _partitioned_sampler()
        ledger = sampler.ledger
        sampler.run_walks(origin=0, n=10, walk_length=6, allow_partial=True)
        drops = sampler.fault_log.count("partition_drop")
        assert drops > 0
        assert ledger.walk_steps + ledger.retries >= drops

    def test_delivery_restored_after_heal(self):
        sampler, plan, _, simulation = _partitioned_sampler(duration=10)
        simulation.run_until(30)  # plan steps past the heal
        assert not plan.active
        before = sampler.fault_log.count("partition_drop")
        sampled = sampler.run_walks(origin=0, n=15, walk_length=8)
        assert len(sampled) == 15
        assert sampler.fault_log.count("partition_drop") == before

    def test_partition_drops_are_deterministic(self):
        def run(seed):
            sampler, _, _, _ = _partitioned_sampler(seed=seed)
            sampled = sampler.run_walks(
                origin=0, n=20, walk_length=6, allow_partial=True
            )
            return (
                sampled,
                sampler.ledger.breakdown(),
                sampler.fault_log.counts(),
            )

        assert run(3) == run(3)


class TestBreakerRouting:
    def _lossy_health_sampler(self, threshold=2, cooldown=1000, tracer=None):
        """Total loss: every first hop dies, so breakers must trip."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        simulation = SimulationEngine()
        sampler = ProtocolSampler(
            graph,
            uniform_weights(),
            simulation,
            np.random.default_rng(1),
            MessageLedger(),
            ProtocolConfig(variant="bounce", laziness=0.0),
            faults=FaultPlan(FaultConfig(message_loss=0.999), rng=200),
            retry=RetryPolicy(timeout=10, max_retries=2),
            health=HealthConfig(
                failure_threshold=threshold,
                cooldown=cooldown,
                detect_fraction=0.5,
            ),
            tracer=tracer,
        )
        return sampler, graph

    def test_correlated_timeouts_trip_every_first_hop_breaker(self):
        sampler, graph = self._lossy_health_sampler()
        sampler.run_walks(origin=0, n=12, walk_length=5, allow_partial=True)
        assert sampler.health is not None
        # origin 0 has two mesh neighbors; both links look dead
        assert sampler.health.trips == len(graph.neighbors(0))
        assert sampler.fault_log.count("breaker_trip") == sampler.health.trips
        fraction = sampler.health.open_fraction(0, len(graph.neighbors(0)))
        assert fraction == 1.0

    def test_all_breakers_open_fast_fails_retries(self):
        """Once every link is suppressed, a relaunched attempt fails at
        the origin without sending anything or burning its timeout."""
        tracer = RecordingTracer()
        sampler, _ = self._lossy_health_sampler(tracer=tracer)
        sampler.run_walks(origin=0, n=12, walk_length=5, allow_partial=True)
        counts = sampler.fault_log.counts()
        assert counts["breaker_suppressed"] > 0
        exhausted = [
            event
            for event in tracer.trace().events
            if event.name == "fault" and event.attrs["kind"] == "walk_failed"
        ]
        assert len(exhausted) == counts["walk_failed"]
        assert any(e.attrs["detail"] == "all_breakers_open" for e in exhausted)
        # fast-failed attempts sent no messages: first attempts all paid
        # one hop each, suppressed relaunches paid nothing
        stats = sampler.walk_stats
        ledger = sampler.ledger
        assert ledger.walk_steps + ledger.retries < stats.attempts

    def test_correlated_failures_raise_partition_suspicion(self):
        sampler, _ = self._lossy_health_sampler()
        sampler.run_walks(origin=0, n=12, walk_length=5, allow_partial=True)
        assert sampler.health is not None
        assert sampler.health.partition_suspected(0)
        assert sampler.fault_log.count("partition_suspected") == 1

    def test_health_free_runtime_is_rng_identical(self):
        """health=None must not perturb first-hop draws: same samples as
        a sampler constructed without the health machinery."""

        def run(health):
            graph = OverlayGraph(mesh_topology(16), n_nodes=16)
            sampler = ProtocolSampler(
                graph,
                uniform_weights(),
                SimulationEngine(),
                np.random.default_rng(7),
                MessageLedger(),
                ProtocolConfig(),
                health=health,
            )
            return sampler.run_walks(origin=0, n=15, walk_length=12)

        # a fault-free run never records failures, so the health-aware
        # first-hop choice admits everyone and must draw identically
        assert run(HealthConfig()) == run(None)


class TestHealRecovery:
    def test_probe_walks_reclose_breakers_after_heal(self):
        """The full lifecycle: cut -> trips + suspicion -> heal -> one
        probe walk per link -> breakers close, suspicion cleared."""
        sampler, plan, graph, _ = _partitioned_sampler(
            duration=40,
            health=HealthConfig(failure_threshold=2, cooldown=5),
        )
        monitor = sampler.health
        assert monitor is not None

        # phase 1: the cut strangles cross-region walks until both of
        # the origin's first-hop links trip
        sampler.run_walks(origin=0, n=20, walk_length=6, allow_partial=True)
        assert monitor.trips == len(graph.neighbors(0))
        assert monitor.partition_suspected(0)
        assert sampler.fault_log.count("partition_drop") > 0

        # phase 2: the plan healed while the queue drained; the next
        # walks go out as half-open probes (one per link) and succeed
        probe_walks = sampler.run_walks(
            origin=0, n=2, walk_length=6, allow_partial=True
        )
        assert len(probe_walks) == 2
        assert monitor.probes == len(graph.neighbors(0))
        for neighbor in graph.neighbors(0):
            assert monitor.breaker(0, neighbor).state == CLOSED
        assert not monitor.partition_suspected(0)
        assert sampler.fault_log.count("partition_cleared") == 1

        # phase 3: with the breakers closed, routing is fully restored
        sampled = sampler.run_walks(origin=0, n=10, walk_length=6)
        assert len(sampled) == 10

    def test_probe_is_rationed_one_walk_per_link(self):
        """While a probe is in flight its link stays suppressed: a burst
        launched right after cooldown gets exactly one probe per link and
        fast-fails the rest instead of stampeding a recovering link."""
        sampler, plan, graph, _ = _partitioned_sampler(
            duration=40,
            health=HealthConfig(failure_threshold=2, cooldown=5),
        )
        sampler.run_walks(origin=0, n=20, walk_length=6, allow_partial=True)
        monitor = sampler.health
        assert monitor is not None
        trips_before = monitor.trips
        burst = sampler.run_walks(
            origin=0, n=10, walk_length=6, allow_partial=True
        )
        # the burst launches at one tick: one probe per tripped link gets
        # through, the other eight walks fail fast while both are pending
        assert monitor.probes == len(graph.neighbors(0))
        assert len(burst) == len(graph.neighbors(0))
        assert monitor.trips == trips_before  # probes succeeded, no re-trip
