"""Named RNG streams: which subsystem a generator argument feeds.

The simulation's reproducibility contract partitions randomness into
named seeded streams — a generator is created for one subsystem and
stays there. When one ``np.random.Generator`` feeds two subsystems, the
draw sequences interleave: adding a fault draw shifts every subsequent
walk draw and silently changes pinned results. DGL011 enforces the
partition statically; this module is its ground truth.

A *sink* is a constructor or builder that takes ownership of a generator
argument. Sinks are matched by the final component of the resolved call
target (``repro.core.DigestEngine`` and ``repro.core.engine.DigestEngine``
are the same sink — re-exports must not dodge the rule), restricted to
project-internal targets. A sink terminates taint tracking: what the
subsystem does with its generator internally is its own business.

Direct method draws (``rng.normal(...)``) are unlabeled — a generator
used for inline draws plus exactly one sink is fine (experiment wiring
does this constantly). The violation is two *different* labels.
"""

from __future__ import annotations

#: final call-target component -> stream label
SINK_LABELS: dict[str, str] = {
    # fault injection
    "FaultPlan": "fault",
    # correlated partition / flap schedule
    "PartitionPlan": "partition",
    # membership churn
    "ChurnProcess": "churn",
    # shared sample pool / engine substrate (one stream by design:
    # DigestSession hands the same generator to its pool and evaluators)
    "SamplePool": "pool",
    "DigestEngine": "engine",
    "DigestSession": "engine",
    # walk execution
    "SamplingOperator": "walk",
    "ProtocolSampler": "walk",
    # overlay construction
    "power_law_topology": "topology",
    "random_topology": "topology",
    "small_world_topology": "topology",
    "random_regular_topology": "topology",
    "augmented_mesh_topology": "topology",
    # synthetic data generation
    "TemperatureInstance": "data",
    "MemoryInstance": "data",
    "distribute_units": "data",
    # gossip baseline
    "PushSumProtocol": "baseline",
    "PushSumBaseline": "baseline",
}

#: top-level packages whose call targets count as project-internal
_PROJECT_ROOTS = ("repro.", "tools.", "tests.", "benchmarks.")


def sink_label(target: str) -> str | None:
    """Stream label for a resolved call target, or None if not a sink.

    ``target`` is a globally resolved dotted path (``repro.x.Y``) or a
    still-local marker (``@local.Y`` / ``@self.m``) — local markers are
    project-internal by construction.
    """
    if target.startswith("@"):
        final = target.rsplit(".", 1)[-1]
    elif target.startswith(_PROJECT_ROOTS):
        final = target.rsplit(".", 1)[-1]
    else:
        return None
    return SINK_LABELS.get(final)
