"""The declared trace schema: every span and event name of the trace format.

Span and event names used to be free-form string literals spread across
~30 producing call sites (``tracer.span("walk", ...)``) and ~24 consuming
comparisons (``span.name == "walk"``). Renaming a span then silently
corrupted every trace-derived result: the producer and the consumer
drifted apart, ``message_attribution`` returned zeros, and nothing
failed. This module is the single declaration point that closes that
class of bug:

* every name is a module-level constant (``SPAN_WALK``, ``EVENT_HOP``,
  ...) that producers and consumers both import;
* every span/event has a :class:`SpanSchema` / :class:`EventSchema`
  entry declaring its attribute keys, registered in :data:`SPAN_SCHEMAS`
  / :data:`EVENT_SCHEMAS`;
* ``tools/digest_analyzer`` statically checks both directions: DGL009
  verifies every ``tracer.span(...)`` / ``.event(...)`` call site in
  ``src/repro`` against this registry (undeclared names and undeclared
  attribute keys are findings), and DGL010 bans hard-coded trace-name
  literals in the consumers (``repro.obs.analysis``, ``repro.cli``,
  ``benchmarks/collect_results.py``).

The *values* of the constants are part of the on-disk trace format and
must never change — exported JSONL traces (CI artifacts, RESULTS.md
inputs) use these exact strings. ``tests/obs/test_schema.py`` pins each
value. Trace format v2 (causal tracing) *added* ``SPAN_HOP_SEGMENT`` and
``EVENT_CTX_FORWARD`` plus optional ``ctx_*`` keys on existing events;
every v1 name kept its value, which is why the v1 import shim in
``repro.obs.export`` needs no translation.

Adding a new span or event name (see docs/OBSERVABILITY.md):

1. add the ``SPAN_*`` / ``EVENT_*`` constant here;
2. register a :class:`SpanSchema` / :class:`EventSchema` entry declaring
   its attribute keys (``required`` must appear over the span's
   lifecycle; ``optional`` may);
3. use the constant at the producing call site and in any consumer —
   the analyzer rejects literals and undeclared names/keys.

This module deliberately imports nothing from the rest of the package
(and only stdlib ``dataclasses``): both ``repro.obs.tracer`` and the
out-of-tree analyzer (which parses this file statically, without
importing it) depend on it staying a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpanSchema:
    """Declared shape of one span name.

    ``required`` keys must all be set over the span's lifecycle (at
    ``tracer.span(...)``, ``span.set(...)`` or ``tracer.end(...)``);
    ``optional`` keys may be. Any other key is a schema violation
    (DGL009).
    """

    name: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    description: str = ""

    @property
    def attrs(self) -> tuple[str, ...]:
        """All declared attribute keys (required then optional)."""
        return self.required + self.optional


@dataclass(frozen=True)
class EventSchema:
    """Declared shape of one event name.

    ``span`` names the span the event attaches to (``None`` = recorded
    span-less / "loose"). Events are atomic: all ``required`` keys must
    appear at the single recording call.
    """

    name: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    span: str | None = None
    description: str = ""

    @property
    def attrs(self) -> tuple[str, ...]:
        """All declared attribute keys (required then optional)."""
        return self.required + self.optional


# ----------------------------------------------------------------------
# span names (values are frozen, see module docstring)
# ----------------------------------------------------------------------

#: One supervised random walk, from launch to completion or failure.
SPAN_WALK = "walk"
#: One coalesced multi-query walk batch (protocol or pool side).
SPAN_SHARED_WALK_BATCH = "shared_walk_batch"
#: One snapshot-query evaluation of a continuous query.
SPAN_SNAPSHOT_QUERY = "snapshot_query"
#: One (message_loss, crash_probability) cell of the fault sweep.
SPAN_FAULT_CELL = "fault_cell"
#: One pool request served to a consuming query (hits + fresh draws).
SPAN_POOL_SERVE = "pool_serve"
#: One (width, duration, heal policy) cell of the partition sweep.
SPAN_PARTITION_CELL = "partition_cell"
#: One operator-level node-sample acquisition (Metropolis walks).
SPAN_SAMPLE_ACQUISITION = "sample_acquisition"
#: One two-stage tuple-sampling round (nodes, then local tuples).
SPAN_TUPLE_SAMPLING = "tuple_sampling"
#: One message transit between two nodes, joined to its walk by the
#: trace context the message carried (trace format v2).
SPAN_HOP_SEGMENT = "hop_segment"

# ----------------------------------------------------------------------
# event names
# ----------------------------------------------------------------------

#: A weight advertisement delivered to a neighbor (loose; control cost).
EVENT_ADVERTISEMENT = "advertisement"
#: One injected fault, mirrored from the FaultLog (loose).
EVENT_FAULT = "fault"
#: A walk attempt superseded by a retry (on the walk span).
EVENT_RETRY = "retry"
#: An origin-side supervision deadline expiring (on the walk span).
EVENT_TIMEOUT = "timeout"
#: One protocol message sent on behalf of a walk (on the walk span).
EVENT_MESSAGE = "message"
#: One walker hop to the next node (on the walk span).
EVENT_HOP = "hop"
#: One cached-weight probe round-trip (on the walk span).
EVENT_PROBE = "probe"
#: A scheduled partition episode cutting the overlay into regions (loose).
EVENT_PARTITION_OPEN = "partition_open"
#: A partition episode healing: all its blocked links restored (loose).
EVENT_PARTITION_HEAL = "partition_heal"
#: A per-neighbor circuit breaker opening after correlated failures (loose).
EVENT_BREAKER_TRIP = "breaker_trip"
#: A half-open breaker admitting one probe walk through (loose).
EVENT_BREAKER_PROBE = "breaker_probe"
#: A reachability change evicting pooled samples wholesale (loose).
EVENT_POOL_INVALIDATE = "pool_invalidate"
#: A previously open circuit breaker re-closing after a successful probe (loose).
EVENT_BREAKER_CLOSE = "breaker_close"
#: An alert rule transitioning into the firing state (loose).
EVENT_ALERT_FIRING = "alert_firing"
#: A firing alert rule transitioning back to resolved (loose).
EVENT_ALERT_RESOLVED = "alert_resolved"
#: A handler forwarding a message with its trace context unchanged
#: (on the walk span; trace format v2).
EVENT_CTX_FORWARD = "ctx_forward"


SPAN_SCHEMAS: dict[str, SpanSchema] = {
    schema.name: schema
    for schema in (
        SpanSchema(
            SPAN_WALK,
            required=("walker_id", "origin", "walk_length", "outcome", "attempts"),
            optional=(
                "consumers",
                "n_consumers",
                "sampled_node",
                "reason",
                # per-category message counts, attached only when a
                # non-recording tracer skipped per-event construction
                "messages_by_category",
            ),
            description="one supervised walk; outcome is completed/failed",
        ),
        SpanSchema(
            SPAN_SHARED_WALK_BATCH,
            required=(
                "n_requested",
                "n_pooled",
                "consumers",
                "n_consumers",
                "origin",
                "n_drawn",
            ),
            description="one coalesced walk batch attributed to its consumers",
        ),
        SpanSchema(
            SPAN_SNAPSHOT_QUERY,
            required=(
                "trigger",
                "aggregate",
                "n_total",
                "n_fresh",
                "n_retained",
                "degraded",
            ),
            optional=(
                "query",
                "reachable_fraction",
                "achieved_epsilon",
                "achieved_confidence",
            ),
            description="one snapshot evaluation; drives RunMetrics counters",
        ),
        SpanSchema(
            SPAN_FAULT_CELL,
            required=(
                "message_loss",
                "crash_probability",
                "seed",
                "n_required",
                "n_achieved",
            ),
            description="one cell of the fault-tolerance sweep",
        ),
        SpanSchema(
            SPAN_PARTITION_CELL,
            required=(
                "width",
                "duration",
                "heal_policy",
                "seed",
                "n_snapshots",
                "n_partitioned",
                "n_dishonest",
            ),
            optional=("recovery_occasions",),
            description="one cell of the partition-tolerance sweep",
        ),
        SpanSchema(
            SPAN_POOL_SERVE,
            required=("n_requested", "consumer", "origin", "n_hit", "n_miss", "n_drawn"),
            description="one pool request served to a query (reuse accounting)",
        ),
        SpanSchema(
            SPAN_SAMPLE_ACQUISITION,
            required=(
                "n_requested",
                "origin",
                "n_continued",
                "n_fresh",
                "mix_length",
                "reset_length",
                "n_delivered",
            ),
            description="one operator node-sample acquisition",
        ),
        SpanSchema(
            SPAN_TUPLE_SAMPLING,
            required=("n_requested", "origin", "n_drawn", "rounds", "partial"),
            description="one two-stage tuple-sampling round",
        ),
        SpanSchema(
            SPAN_HOP_SEGMENT,
            required=(
                "walker_id",
                "category",
                "from_node",
                "to_node",
                "ctx_trace",
                "ctx_span",
                "ctx_attempt",
            ),
            optional=("delivered", "orphaned"),
            description="one message transit (send to delivery), ctx-joined",
        ),
    )
}

EVENT_SCHEMAS: dict[str, EventSchema] = {
    schema.name: schema
    for schema in (
        EventSchema(
            EVENT_ADVERTISEMENT,
            required=("to_node", "source"),
            description="weight advertisement delivered to a neighbor",
        ),
        EventSchema(
            EVENT_FAULT,
            required=("kind", "walker_id", "node", "detail"),
            description="one injected fault mirrored from the FaultLog",
        ),
        EventSchema(
            EVENT_RETRY,
            required=("attempt",),
            optional=("ctx_trace", "ctx_span", "ctx_attempt"),
            span=SPAN_WALK,
            description="a walk attempt superseded by a retry",
        ),
        EventSchema(
            EVENT_TIMEOUT,
            required=("attempt",),
            span=SPAN_WALK,
            description="an origin-side supervision deadline expired",
        ),
        EventSchema(
            EVENT_MESSAGE,
            required=("category", "to_node"),
            span=SPAN_WALK,
            description="one protocol message (mirrors MessageLedger bucketing)",
        ),
        EventSchema(
            EVENT_HOP,
            required=("node", "steps_remaining"),
            optional=("ctx_trace", "ctx_span", "ctx_attempt"),
            span=SPAN_WALK,
            description="one walker hop",
        ),
        EventSchema(
            EVENT_PROBE,
            required=("node", "target", "messages"),
            span=SPAN_WALK,
            description="one cached-weight probe round-trip",
        ),
        EventSchema(
            EVENT_PARTITION_OPEN,
            required=("episode", "n_regions", "n_blocked", "duration"),
            description="a scheduled partition episode cutting the overlay",
        ),
        EventSchema(
            EVENT_PARTITION_HEAL,
            required=("episode", "n_restored", "repaired"),
            optional=("n_bridges",),
            description="a partition episode healing (links restored)",
        ),
        EventSchema(
            EVENT_BREAKER_TRIP,
            required=("origin", "neighbor", "failures"),
            description="a per-neighbor circuit breaker opening",
        ),
        EventSchema(
            EVENT_BREAKER_PROBE,
            required=("origin", "neighbor"),
            description="a half-open breaker admitting one probe walk",
        ),
        EventSchema(
            EVENT_POOL_INVALIDATE,
            required=("n_evicted", "reason"),
            description="a reachability change evicting pooled samples",
        ),
        EventSchema(
            EVENT_BREAKER_CLOSE,
            required=("origin", "neighbor"),
            description="an open circuit breaker re-closing on probe success",
        ),
        EventSchema(
            EVENT_ALERT_FIRING,
            required=("rule", "kind", "signal", "value", "threshold"),
            description="an alert rule entering the firing state",
        ),
        EventSchema(
            EVENT_ALERT_RESOLVED,
            required=("rule", "kind", "signal", "value", "threshold"),
            description="a firing alert rule returning to resolved",
        ),
        EventSchema(
            EVENT_CTX_FORWARD,
            required=("ctx_trace", "ctx_span", "ctx_attempt", "from_node", "to_node"),
            span=SPAN_WALK,
            description="a handler forwarding a message, context unchanged",
        ),
    )
}


def span_names() -> frozenset[str]:
    """All declared span names."""
    return frozenset(SPAN_SCHEMAS)


def event_names() -> frozenset[str]:
    """All declared event names."""
    return frozenset(EVENT_SCHEMAS)


def trace_names() -> frozenset[str]:
    """All declared trace names (spans and events)."""
    return span_names() | event_names()
