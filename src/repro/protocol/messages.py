"""Message types of the sampling protocol.

Every message is an immutable record delivered by the runtime after its
hop latency; handlers run at the *receiving* node with only that node's
local state in scope. Messages carry the ``attempt`` number of the walk
they belong to so the origin-side supervisor can discard deliveries from
attempts it has already timed out and superseded.

Causal tracing rides inside the messages themselves: every message
carries an optional :class:`TraceContext` stamped by the origin-side
supervisor when the attempt launches. Handlers forward the context
unchanged (``dataclasses.replace`` preserves it for free), so hop-level
spans recorded at *other* nodes can be joined back to the walk that
caused them without any origin-side inference — which is the only way
causality survives once the transport is a real network instead of a
simulation (see the asyncio-backend roadmap item).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceContext:
    """Compact causal context propagated inside protocol messages.

    ``trace_id`` is the span id of the walk span that owns the whole
    causal tree; ``span_id`` is the parent span under which downstream
    hop segments attach (equal to ``trace_id`` when stamped at launch);
    ``attempt`` tags which retry attempt the message belongs to, so
    deliveries from superseded attempts assemble as orphans rather than
    corrupting the final chain.
    """

    trace_id: int
    span_id: int
    attempt: int


def mint_context(trace_id: int, span_id: int, attempt: int) -> TraceContext:
    """The one sanctioned way to create a *fresh* :class:`TraceContext`.

    Minting is the stamping authority's job: only
    :class:`~repro.protocol.lifecycle.WalkLifecycle` mints, at launch and
    at every retry. Everything downstream — executors, transports, the
    future asyncio backend — forwards the incoming message's ``ctx``
    unchanged. Hand-built context dicts and out-of-band
    ``TraceContext(...)`` calls are flagged statically (digest-analyzer
    DGL015).
    """
    return TraceContext(trace_id=trace_id, span_id=span_id, attempt=attempt)


@dataclass(frozen=True)
class WalkToken:
    """The sampling agent, forwarded node to node.

    ``steps_remaining`` counts chain transitions still to perform
    (including the one being decided). For the bounce variant the token
    carries the sender's ``(weight, degree)`` so the receiver can evaluate
    the Metropolis acceptance without a probe round trip.
    """

    walker_id: int
    origin: int
    steps_remaining: int
    sender: int
    sender_weight: float
    sender_degree: int
    attempt: int = 1
    ctx: TraceContext | None = None


@dataclass(frozen=True)
class BounceBack:
    """Rejection bounce: the token returns to the proposing node."""

    walker_id: int
    origin: int
    steps_remaining: int
    attempt: int = 1
    ctx: TraceContext | None = None


@dataclass(frozen=True)
class SampleReturn:
    """A finished walk reporting its final position back to the origin.

    ``at_node`` is the node currently holding the message. Each hop the
    holder re-resolves the shortest path toward the origin against the
    *live* topology (rather than trusting a hop count precomputed when the
    walk ended), so returns survive crashes and rewiring along the way.
    """

    walker_id: int
    origin: int
    sampled_node: int
    at_node: int
    attempt: int = 1
    ctx: TraceContext | None = None


@dataclass(frozen=True)
class WeightAdvertisement:
    """Cached-variant control traffic: a node's new weight, to a neighbor.

    Control traffic is not caused by any single walk, so advertisements
    normally travel with ``ctx=None``; the field exists so the wire
    format is uniform across every message the transport carries.
    """

    source: int
    weight: float
    ctx: TraceContext | None = None
