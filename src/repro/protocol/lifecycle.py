"""Origin-side walk supervision as an explicit state machine.

Every supervised walk moves through a fixed phase graph::

    PENDING --launch--> IN_FLIGHT --complete--> DONE
                          |    ^
                    timeout    retry
                          v    |
                        RETRYING --fail--> FAILED
                   (IN_FLIGHT --fail--> FAILED too)

:data:`TRANSITIONS` is the whole machine as data — one ``(phase, event)
-> phase`` table — and :func:`next_phase` is its only evaluator, so the
legal interleavings are enumerable by tests instead of being implicit in
callback wiring. An illegal transition raises :class:`AssertionError`:
it can only mean a protocol-internal invariant broke (a stale timer
firing past the guards, a completion after a failure), never bad user
input, and scheduled handlers are statically checked (DGL006) to raise
nothing else.

:class:`WalkLifecycle` owns the per-walk supervision state
(:class:`WalkRecord`), the retry timers (armed through the transport so
the same machine can later run on an asyncio backend), the outcome
bookkeeping, and the walk-span observability hooks. It knows nothing
about the overlay graph or the protocol variants: the walk *executor*
injects tokens through the ``bind``-ed launcher and reports back via
:meth:`complete` / :meth:`fail`, and first-hop health feedback flows
through the :class:`~repro.protocol.routing.RoutingPolicy` seam.

Hot-path observability
----------------------
``note_hop`` / ``note_message`` / ``note_probe`` run once per hop /
message — the innermost loops of the whole system. When the tracer is
recording (a sink retains span events: export, registry), they append
full :class:`~repro.obs.tracer.TraceEvent` records exactly as before.
When tracing is enabled but *nothing consumes per-event records* (live
metrics and windowed analytics read only span attributes), they skip
event construction entirely and keep a per-category message count that
is attached to the walk span as ``messages_by_category`` at walk end —
the quantity :class:`~repro.obs.live.LivePipeline` actually needs, at a
fraction of the cost (see ``benchmarks/bench_obs_overhead.py``).

Causal stamping
---------------
The lifecycle is also the *stamping authority* for causal tracing: every
attempt gets a fresh :class:`~repro.protocol.messages.TraceContext`
(minted through the one sanctioned helper,
:func:`~repro.protocol.messages.mint_context`) that travels inside every
message the attempt sends. Downstream layers forward it unchanged —
statically enforced by digest-analyzer DGL015 — so hop-level spans recorded
mid-overlay join back to their walk without origin-side inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import SamplingError
from repro.network.faults import FaultLog
from repro.obs.schema import (
    EVENT_CTX_FORWARD,
    EVENT_HOP,
    EVENT_MESSAGE,
    EVENT_PROBE,
    EVENT_RETRY,
    EVENT_TIMEOUT,
    SPAN_HOP_SEGMENT,
    SPAN_WALK,
)
from repro.obs.tracer import NULL_SPAN, Span, TraceEvent, Tracer
from repro.protocol.messages import TraceContext, mint_context
from repro.protocol.transport import Transport
from repro.sim.clock import SimulationClock
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.protocol.routing import RoutingPolicy

# ----------------------------------------------------------------------
# the state machine, as data
# ----------------------------------------------------------------------

PENDING = "pending"
IN_FLIGHT = "in_flight"
RETRYING = "retrying"
DONE = "done"
FAILED = "failed"

#: every phase, in lifecycle order
PHASES = (PENDING, IN_FLIGHT, RETRYING, DONE, FAILED)
#: phases a walk can never leave
TERMINAL_PHASES = (DONE, FAILED)
#: every transition event
EVENTS = ("launch", "timeout", "retry", "complete", "fail")

#: the full machine: ``(phase, event) -> next phase``; any pair not in
#: the table is illegal
TRANSITIONS: dict[tuple[str, str], str] = {
    (PENDING, "launch"): IN_FLIGHT,
    (IN_FLIGHT, "timeout"): RETRYING,
    (RETRYING, "retry"): IN_FLIGHT,
    (IN_FLIGHT, "complete"): DONE,
    (IN_FLIGHT, "fail"): FAILED,
    (RETRYING, "fail"): FAILED,
}


def next_phase(phase: str, event: str) -> str:
    """Evaluate one transition; illegal pairs raise ``AssertionError``.

    An illegal transition is an internal-invariant violation (the guards
    in this module exist to make them unreachable), so it asserts rather
    than raising a domain error — and stays within the exception set
    scheduled handlers are allowed (DGL013).
    """
    target = TRANSITIONS.get((phase, event))
    assert target is not None, (
        f"illegal walk transition: no {event!r} edge from phase {phase!r}"
    )
    return target


# ----------------------------------------------------------------------
# supervision policy and bookkeeping records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Origin-side walk supervision.

    A walk attempt that has not completed ``timeout`` ticks after launch
    is declared lost and relaunched, up to ``max_retries`` retries; each
    successive attempt's timeout is scaled by ``backoff`` (lost walks on a
    congested or jittery overlay need progressively more slack). The
    origin needs no global knowledge for this — it supervises only its
    own outstanding requests.
    """

    timeout: int
    max_retries: int = 3
    backoff: float = 1.5

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise SamplingError(f"timeout must be >= 1, got {self.timeout}")
        if self.max_retries < 0:
            raise SamplingError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 1.0:
            raise SamplingError(f"backoff must be >= 1.0, got {self.backoff}")

    def timeout_for(self, attempt: int) -> int:
        """Timeout (ticks) for the given 1-based attempt number."""
        return max(1, int(round(self.timeout * self.backoff ** (attempt - 1))))


@dataclass(frozen=True)
class WalkStats:
    """Supervision outcome summary across all walks of a sampler."""

    launched: int
    completed: int
    failed: int
    attempts: int
    timeouts: int
    retried_completions: int  # walks that completed on attempt >= 2

    @property
    def completion_rate(self) -> float:
        """Fraction of launched walks that eventually completed."""
        return self.completed / self.launched if self.launched else 1.0

    @property
    def recovery_rate(self) -> float:
        """Fraction of walks that timed out at least once but completed."""
        troubled = self.retried_completions + self.failed
        return self.retried_completions / troubled if troubled else 1.0


@dataclass
class WalkOutcome:
    """The delivered result of one completed walk."""

    walker_id: int
    sampled_node: int
    completed_at: int
    attempts: int = 1


@dataclass
class WalkRecord:
    """Origin-side supervision record for one walk."""

    walker_id: int
    origin: int
    walk_length: int
    phase: str = PENDING
    attempt: int = 0
    timeouts: int = 0
    #: the neighbor this attempt first left the origin through, for
    #: health attribution (reset per attempt; None until the token moves)
    first_hop: int | None = None
    #: causal context stamped for the *current* attempt; every message
    #: this attempt sends carries it (re-minted per attempt, so stale
    #: deliveries assemble as orphans instead of joining the live chain)
    ctx: TraceContext | None = None
    timeout_event: Event | None = field(default=None, repr=False)
    span: Span = field(default_factory=lambda: NULL_SPAN, repr=False)
    #: per-category message counts, kept only on the non-recording trace
    #: fast path (attached as the span's ``messages_by_category`` at end)
    msg_counts: dict[str, int] | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.phase == DONE

    @property
    def failed(self) -> bool:
        return self.phase == FAILED

    @property
    def finished(self) -> bool:
        return self.phase in TERMINAL_PHASES


#: a launcher injects the next attempt's token into the walk executor
Launcher = Callable[[WalkRecord, int], None]


class WalkLifecycle:
    """Drives every walk through the transition table.

    Construction wires the seams: timers and time through ``transport``,
    first-hop feedback through ``routing``, spans through ``tracer``.
    The token-injection side is bound after construction (:meth:`bind`)
    because the executor needs the lifecycle first — the one deliberate
    cycle in the stack, tied at the orchestrator.
    """

    def __init__(
        self,
        transport: Transport,
        tracer: Tracer,
        fault_log: FaultLog,
        clock: SimulationClock,
        routing: "RoutingPolicy",
        retry: RetryPolicy | None = None,
    ) -> None:
        self._transport = transport
        self._tracer = tracer
        #: ``enabled`` and the clock are cached as plain attributes — the
        #: per-message hooks read them and property dispatch is
        #: measurable at that call rate
        self._traced = tracer.enabled
        self._clock = clock
        self.fault_log = fault_log
        self._routing = routing
        self._retry = retry
        self.outcomes: dict[int, WalkOutcome] = {}
        self._records: dict[int, WalkRecord] = {}
        self._next_walker = 0
        self._inject: Launcher | None = None

    def bind(self, inject: Launcher) -> None:
        """Wire the token injector (the walk executor's entry point)."""
        self._inject = inject

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def _transition(self, record: WalkRecord, event: str) -> None:
        record.phase = next_phase(record.phase, event)

    def launch(self, origin: int, walk_length: int) -> int:
        """Create and launch one supervised walk; returns its walker id."""
        walker_id = self._next_walker
        self._next_walker += 1
        record = WalkRecord(
            walker_id=walker_id, origin=origin, walk_length=walk_length
        )
        record.span = self._tracer.span(
            SPAN_WALK,
            time=self._transport.now,
            walker_id=walker_id,
            origin=origin,
            walk_length=walk_length,
        )
        self._records[walker_id] = record
        self._transition(record, "launch")
        self._launch_attempt(record)
        return walker_id

    def _launch_attempt(self, record: WalkRecord) -> None:
        """Begin the next attempt of a walk: arm the timeout, inject token."""
        record.attempt += 1
        record.first_hop = None
        attempt = record.attempt
        # the stamping authority: a fresh context per attempt, rooted at
        # the walk span (DGL015 keeps minting confined to this module)
        ctx = mint_context(record.span.span_id, record.span.span_id, attempt)
        record.ctx = ctx
        if attempt > 1:
            record.span.add_event(
                self._transport.now,
                EVENT_RETRY,
                attempt=attempt,
                ctx_trace=ctx.trace_id,
                ctx_span=ctx.span_id,
                ctx_attempt=ctx.attempt,
            )
        if self._retry is not None:
            record.timeout_event = self._transport.schedule(
                self._retry.timeout_for(attempt),
                lambda time: self._handle_timeout(record, attempt),
            )

        def begin(time: int) -> None:
            if record.finished or attempt != record.attempt:
                return
            assert self._inject is not None, "lifecycle launched before bind()"
            self._inject(record, attempt)

        self._transport.schedule(0, begin)

    def _handle_timeout(self, record: WalkRecord, attempt: int) -> None:
        """Origin-side deadline: declare the attempt lost, retry or fail."""
        if record.finished or attempt != record.attempt:
            return  # superseded or already resolved; stale timer
        self._transition(record, "timeout")
        record.timeouts += 1
        record.span.add_event(
            self._transport.now, EVENT_TIMEOUT, attempt=attempt
        )
        self.fault_log.record(
            self._transport.now,
            "walk_timeout",
            walker_id=record.walker_id,
            node=record.origin,
            detail=f"attempt {attempt}",
        )
        # the attempt died somewhere past its first hop: the routing
        # policy may indict the link it left through (correlated
        # timeouts trip that link's breaker under health-aware routing)
        self._routing.record_outcome(
            record.origin, record.first_hop, ok=False, time=self._transport.now
        )
        if self._retry is None or record.attempt > self._retry.max_retries:
            self.fail(record, "retries_exhausted")
            return
        self._transition(record, "retry")
        self._launch_attempt(record)

    def fail(self, record: WalkRecord, reason: str) -> None:
        """Terminal failure: record it; the walk yields no sample."""
        self._transition(record, "fail")
        if record.timeout_event is not None:
            record.timeout_event.cancel()
            record.timeout_event = None
        self.fault_log.record(
            self._transport.now,
            "walk_failed",
            walker_id=record.walker_id,
            detail=reason,
        )
        self._attach_message_counts(record)
        self._tracer.end(
            record.span,
            time=self._transport.now,
            outcome="failed",
            attempts=record.attempt,
            reason=reason,
        )

    def complete(self, record: WalkRecord, sampled_node: int) -> None:
        """A sample made it back to the origin; release the supervisor."""
        self._transition(record, "complete")
        self._routing.record_outcome(
            record.origin, record.first_hop, ok=True, time=self._transport.now
        )
        if record.timeout_event is not None:
            record.timeout_event.cancel()
            record.timeout_event = None
        self.outcomes[record.walker_id] = WalkOutcome(
            walker_id=record.walker_id,
            sampled_node=sampled_node,
            completed_at=self._transport.now,
            attempts=record.attempt,
        )
        self._attach_message_counts(record)
        self._tracer.end(
            record.span,
            time=self._transport.now,
            outcome="completed",
            attempts=record.attempt,
            sampled_node=sampled_node,
        )

    # ------------------------------------------------------------------
    # lookups and driving
    # ------------------------------------------------------------------

    def record(self, walker_id: int) -> WalkRecord:
        """The supervision record of a launched walk."""
        return self._records[walker_id]

    def live_record(self, walker_id: int, attempt: int) -> WalkRecord | None:
        """The walk's record iff this attempt is still the live one."""
        record = self._records.get(walker_id)
        if record is None or record.finished or attempt != record.attempt:
            return None
        return record

    def drive(self, walker_ids: list[int], deadline: int | None) -> None:
        """Run the transport dry (or to ``deadline``), failing stragglers."""
        if deadline is None:
            self._transport.run_all()
            return
        self._transport.run_until(self._transport.now + deadline)
        for walker_id in walker_ids:
            record = self._records[walker_id]
            if not record.finished:
                self.fail(record, "deadline_expired")

    @property
    def stats(self) -> WalkStats:
        """Aggregate supervision outcomes across all launched walks."""
        records = self._records.values()
        completed = sum(1 for r in records if r.done)
        return WalkStats(
            launched=len(self._records),
            completed=completed,
            failed=sum(1 for r in records if r.failed),
            attempts=sum(r.attempt for r in records),
            timeouts=sum(r.timeouts for r in records),
            retried_completions=sum(
                1 for r in records if r.done and r.attempt > 1
            ),
        )

    # ------------------------------------------------------------------
    # per-hop / per-message observability hooks (the hot path)
    # ------------------------------------------------------------------

    def note_hop(self, record: WalkRecord, node: int, steps_remaining: int) -> None:
        """One walker hop; recorded only when a sink keeps span events."""
        if self._traced and self._tracer.is_recording:
            ctx = record.ctx
            assert ctx is not None, "live record without a minted context"
            # appended directly: this runs once per hop
            record.span.events.append(
                TraceEvent(
                    self._clock.now,
                    EVENT_HOP,
                    {
                        "node": node,
                        "steps_remaining": steps_remaining,
                        "ctx_trace": ctx.trace_id,
                        "ctx_span": ctx.span_id,
                        "ctx_attempt": ctx.attempt,
                    },
                )
            )

    def note_message(
        self, walker_id: int, attempt: int, kind: str, to_node: int
    ) -> None:
        """One protocol message, bucketed exactly like the ledger.

        Mirrors the executor's ledger bucketing (retry traffic under
        ``retry``), so trace attribution and the ledger cannot disagree.
        On the non-recording path only the per-category count survives.
        """
        if not self._traced:
            return
        record = self._records.get(walker_id)
        if record is None:
            return
        category = "retry" if attempt > 1 else kind
        if self._tracer.is_recording:
            # appended directly: this runs once per message
            record.span.events.append(
                TraceEvent(
                    self._clock.now,
                    EVENT_MESSAGE,
                    {"category": category, "to_node": to_node},
                )
            )
        else:
            counts = record.msg_counts
            if counts is None:
                counts = record.msg_counts = {}
            counts[category] = counts.get(category, 0) + 1

    def note_probe(self, walker_id: int, node: int, target: int) -> None:
        """One cached-weight probe round-trip (2 control messages)."""
        if not self._traced:
            return
        record = self._records.get(walker_id)
        if record is None:
            return
        if self._tracer.is_recording:
            record.span.add_event(
                self._transport.now,
                EVENT_PROBE,
                node=node,
                target=target,
                messages=2,
            )
        else:
            counts = record.msg_counts
            if counts is None:
                counts = record.msg_counts = {}
            counts["probe"] = counts.get("probe", 0) + 2

    def begin_hop_segment(
        self,
        walker_id: int,
        kind: str,
        from_node: int,
        to_node: int,
        ctx: TraceContext | None,
    ) -> Span | None:
        """Open one message-transit span, joined to its walk by ``ctx``.

        Returns ``None`` on the non-recording path — transit spans exist
        only for sinks that retain them (export, registry), so the hot
        path pays one boolean check and nothing else. The span is ended
        at *delivery* (:meth:`end_hop_segment`); a message the transport
        drops leaves its segment forever open, and open spans are never
        exported — the causal chain simply has a gap where the overlay
        swallowed the message, which is exactly what a real network
        would show.
        """
        if ctx is None or not (self._traced and self._tracer.is_recording):
            return None
        record = self._records.get(walker_id)
        return self._tracer.span(
            SPAN_HOP_SEGMENT,
            time=self._clock.now,
            parent=record.span if record is not None else None,
            walker_id=walker_id,
            category=kind,
            from_node=from_node,
            to_node=to_node,
            ctx_trace=ctx.trace_id,
            ctx_span=ctx.span_id,
            ctx_attempt=ctx.attempt,
        )

    def end_hop_segment(
        self, segment: Span | None, walker_id: int, attempt: int
    ) -> None:
        """Close a transit span at delivery time.

        ``orphaned`` marks deliveries of attempts the supervisor has
        already superseded or resolved — they really happened on the
        overlay (and are billed), but no live chain will claim them.
        """
        if segment is None:
            return
        self._tracer.end(
            segment,
            time=self._clock.now,
            delivered=True,
            orphaned=self.live_record(walker_id, attempt) is None,
        )

    def note_ctx_forward(
        self,
        walker_id: int,
        ctx: TraceContext | None,
        from_node: int,
        to_node: int,
    ) -> None:
        """A handler forwarded a message with its context unchanged."""
        if ctx is None or not (self._traced and self._tracer.is_recording):
            return
        record = self._records.get(walker_id)
        if record is None:
            return
        record.span.events.append(
            TraceEvent(
                self._clock.now,
                EVENT_CTX_FORWARD,
                {
                    "ctx_trace": ctx.trace_id,
                    "ctx_span": ctx.span_id,
                    "ctx_attempt": ctx.attempt,
                    "from_node": from_node,
                    "to_node": to_node,
                },
            )
        )

    def _attach_message_counts(self, record: WalkRecord) -> None:
        """Surface fast-path message counts on the span before it ends."""
        if record.msg_counts:
            record.span.set(messages_by_category=record.msg_counts)
