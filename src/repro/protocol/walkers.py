"""Per-node walk execution: the protocol's message handlers.

:class:`WalkExecutor` is the distributed part of the stack — the code
that conceptually runs *on each overlay node* when a walk token or a
sample return arrives. It owns the Metropolis step logic of both
protocol variants (bounce and cached), the hop-by-hop return routing,
and the ledger accounting; it delegates delivery to the
:class:`~repro.protocol.transport.Transport`, supervision state to the
:class:`~repro.protocol.lifecycle.WalkLifecycle`, and first-hop choice
to the :class:`~repro.protocol.routing.RoutingPolicy`.

Locality discipline: handlers may read only (a) the receiving node's own
weight/degree/neighbor list and (b) the message contents. The one
exception is shortest-path return routing, which uses origin-rooted hop
distances as a stand-in for the routing state a real deployment would
piggyback on the walk.

Handlers never let an exception escape a scheduled delivery — every
failure (lost message, crashed receiver, broken return path, isolated
node) becomes a recorded :class:`~repro.network.faults.FaultEvent` on
the fault log (digest-analyzer DGL006 enforces this statically).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.network.faults import FaultLog
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.protocol.advertisements import AdvertisementCache
from repro.protocol.lifecycle import WalkLifecycle, WalkRecord
from repro.protocol.messages import (
    BounceBack,
    SampleReturn,
    TraceContext,
    WalkToken,
)
from repro.protocol.routing import RoutingPolicy
from repro.protocol.transport import KIND_RETURN, KIND_WALK, Transport
from repro.sampling.weights import WeightFunction


class WalkExecutor:
    """Executes walk tokens and sample returns at their receiving nodes."""

    def __init__(
        self,
        graph: OverlayGraph,
        weight: WeightFunction,
        rng: np.random.Generator,
        variant: str,
        hop_latency: int,
        laziness: float,
        transport: Transport,
        lifecycle: WalkLifecycle,
        routing: RoutingPolicy,
        ledger: MessageLedger,
        fault_log: FaultLog,
        advertisements: AdvertisementCache | None = None,
    ) -> None:
        self._graph = graph
        self._weight = weight
        self._rng = rng
        self._variant = variant
        self._hop_latency = hop_latency
        self._laziness = laziness
        self._transport = transport
        self._lifecycle = lifecycle
        self._routing = routing
        self._ledger = ledger
        self._fault_log = fault_log
        self._ads = advertisements
        self.bounces = 0

    # ------------------------------------------------------------------
    # token injection (lifecycle -> executor)
    # ------------------------------------------------------------------

    def inject(self, record: WalkRecord, attempt: int) -> None:
        """Start one attempt: hand the origin its own walk token."""
        if record.origin not in self._graph:
            self._lifecycle.fail(record, "origin_departed")
            return
        self._handle_step(
            record.walker_id,
            record.origin,
            record.origin,
            record.walk_length,
            attempt,
        )

    # ------------------------------------------------------------------
    # unreliable delivery
    # ------------------------------------------------------------------

    def _record_traffic(self, attempt: int, kind: str) -> None:
        """Tally one message; retry-attempt traffic goes to ``retries``."""
        if attempt > 1:
            self._ledger.record_retry(1)
        elif kind == KIND_WALK:
            self._ledger.record_walk_steps(1)
        else:
            self._ledger.record_sample_return(1)

    def _transmit(
        self,
        attempt: int,
        kind: str,
        from_node: int,
        to_node: int,
        walker_id: int,
        ctx: TraceContext | None,
        deliver: Callable[[], None],
    ) -> None:
        """Send one message: pay for it, note it, hand it to transport.

        The cost is recorded at send time — a message lost in transit was
        still sent; loss, partitions, and crashed receivers are the
        transport's concern and surface as fault events, never here.

        When a recording sink is attached, the transit gets its own
        ``hop_segment`` span carrying the message's trace context: opened
        here at send time, closed by the wrapped ``deliver`` at delivery
        time. The transport stays context-agnostic — it just runs the
        thunk — so any backend (including a future asyncio one) inherits
        causal tracing without knowing it exists.
        """
        self._record_traffic(attempt, kind)
        self._lifecycle.note_message(walker_id, attempt, kind, to_node)
        segment = self._lifecycle.begin_hop_segment(
            walker_id, kind, from_node, to_node, ctx
        )
        if segment is not None:
            inner = deliver

            def traced_deliver() -> None:
                self._lifecycle.end_hop_segment(segment, walker_id, attempt)
                inner()

            deliver = traced_deliver
        self._transport.send(kind, from_node, to_node, walker_id, deliver)

    # ------------------------------------------------------------------
    # per-node protocol logic
    # ------------------------------------------------------------------

    def _handle_step(
        self,
        walker_id: int,
        origin: int,
        node: int,
        steps_remaining: int,
        attempt: int,
    ) -> None:
        """The node holding the token decides one chain transition."""
        record = self._lifecycle.live_record(walker_id, attempt)
        if record is None:
            return  # superseded attempt or finished walk: drop the token
        self._lifecycle.note_hop(record, node, steps_remaining)
        if node not in self._graph:
            self._fault_log.record(
                self._transport.now,
                "node_departed",
                walker_id=walker_id,
                node=node,
            )
            return
        if steps_remaining <= 0:
            self._begin_return(walker_id, origin, node, attempt, record.ctx)
            return
        if self._laziness > 0.0 and self._rng.random() < self._laziness:
            # lazy self-loop: burns a tick, sends nothing
            self._transport.schedule(
                self._hop_latency,
                lambda t: self._handle_step(
                    walker_id, origin, node, steps_remaining - 1, attempt
                ),
            )
            return
        neighbors = self._graph.neighbors(node)
        if not neighbors:
            # crashes/link failures isolated the token's host; the walk
            # dies here and the origin-side timeout recovers it
            self._fault_log.record(
                self._transport.now,
                "isolated_node",
                walker_id=walker_id,
                node=node,
            )
            return
        if node == origin and record.first_hop is None:
            target = self._routing.choose_first_hop(
                record, neighbors, self._transport.now
            )
            if target is None:
                self._lifecycle.fail(record, "all_breakers_open")
                return
        else:
            # mid-walk Metropolis proposal: always a local uniform draw
            target = neighbors[int(self._rng.integers(len(neighbors)))]
        if self._variant == "cached":
            self._cached_step(
                walker_id, origin, node, target, steps_remaining, attempt,
                record.ctx,
            )
        else:
            self._bounce_step(
                walker_id, origin, node, target, steps_remaining, attempt,
                record.ctx,
            )

    def _acceptance(self, w_i: float, d_i: int, w_j: float, d_j: int) -> float:
        if w_i == 0.0:
            return 1.0
        return min(1.0, (w_j * d_i) / (w_i * d_j))

    def _cached_step(
        self,
        walker_id: int,
        origin: int,
        node: int,
        target: int,
        steps_remaining: int,
        attempt: int,
        ctx: TraceContext | None,
    ) -> None:
        """Cached variant: decide locally; only accepted moves send."""
        ads = self._ads
        assert ads is not None, "cached variant requires an advertisement cache"
        cached = ads.lookup(node, target)
        if cached is None:
            # cache miss (a link appeared without an advertisement, e.g.
            # an unannounced join or leave-rewiring): probe the neighbor
            # on demand — one request + one reply — instead of dying
            self._ledger.record_control(2, label="weight_probe")
            self._lifecycle.note_probe(walker_id, node, target)
            self._fault_log.record(
                self._transport.now,
                "advertisement_cache_miss",
                walker_id=walker_id,
                node=node,
                detail=f"probed neighbor {target}",
            )
            cached = self._weight(target)
            ads.store(node, target, cached)
        accept = self._acceptance(
            self._weight(node),
            self._graph.degree(node),
            cached,
            self._graph.degree(target),
        )
        if self._rng.random() < accept:
            token = WalkToken(
                walker_id=walker_id,
                origin=origin,
                steps_remaining=steps_remaining - 1,
                sender=node,
                sender_weight=self._weight(node),
                sender_degree=self._graph.degree(node),
                attempt=attempt,
                ctx=ctx,
            )
            self._send_token(token, target)
        else:
            # rejected proposal: no message at all in this variant
            self._transport.schedule(
                self._hop_latency,
                lambda t: self._handle_step(
                    walker_id, origin, node, steps_remaining - 1, attempt
                ),
            )

    def _bounce_step(
        self,
        walker_id: int,
        origin: int,
        node: int,
        target: int,
        steps_remaining: int,
        attempt: int,
        ctx: TraceContext | None,
    ) -> None:
        """Bounce variant: forward optimistically; receiver may bounce."""
        token = WalkToken(
            walker_id=walker_id,
            origin=origin,
            steps_remaining=steps_remaining,
            sender=node,
            sender_weight=self._weight(node),
            sender_degree=self._graph.degree(node),
            attempt=attempt,
            ctx=ctx,
        )
        self._send_token(token, target, evaluate_at_receiver=True)

    def _send_token(
        self, token: WalkToken, to_node: int, evaluate_at_receiver: bool = False
    ) -> None:
        def deliver() -> None:
            if evaluate_at_receiver:
                self._receive_optimistic_token(token, to_node)
            else:
                self._handle_step(
                    token.walker_id,
                    token.origin,
                    to_node,
                    token.steps_remaining,
                    token.attempt,
                )

        self._transmit(
            token.attempt,
            KIND_WALK,
            token.sender,
            to_node,
            token.walker_id,
            token.ctx,
            deliver,
        )

    def _receive_optimistic_token(self, token: WalkToken, node: int) -> None:
        """Bounce variant, receiver side: accept or bounce back."""
        if self._lifecycle.live_record(token.walker_id, token.attempt) is None:
            return
        accept = self._acceptance(
            token.sender_weight,
            token.sender_degree,
            self._weight(node),
            self._graph.degree(node),
        )
        if self._rng.random() < accept:
            self._handle_step(
                token.walker_id,
                token.origin,
                node,
                token.steps_remaining - 1,
                token.attempt,
            )
        else:
            self.bounces += 1
            # the rejected token returns as an explicit bounce message,
            # its context forwarded unchanged from the incoming token
            bounce = BounceBack(
                walker_id=token.walker_id,
                origin=token.origin,
                steps_remaining=token.steps_remaining - 1,
                attempt=token.attempt,
                ctx=token.ctx,
            )
            self._lifecycle.note_ctx_forward(
                bounce.walker_id, bounce.ctx, node, token.sender
            )

            def deliver() -> None:
                self._handle_step(
                    bounce.walker_id,
                    bounce.origin,
                    token.sender,
                    bounce.steps_remaining,
                    bounce.attempt,
                )

            # the bounce message, subject to the same unreliable delivery
            self._transmit(
                bounce.attempt,
                KIND_WALK,
                node,
                token.sender,
                bounce.walker_id,
                bounce.ctx,
                deliver,
            )

    # ------------------------------------------------------------------
    # sample return routing
    # ------------------------------------------------------------------

    def _begin_return(
        self,
        walker_id: int,
        origin: int,
        node: int,
        attempt: int,
        ctx: TraceContext | None,
    ) -> None:
        self._handle_return(
            SampleReturn(
                walker_id=walker_id,
                origin=origin,
                sampled_node=node,
                at_node=node,
                attempt=attempt,
                ctx=ctx,
            )
        )

    def _handle_return(self, message: SampleReturn) -> None:
        """Route one return hop toward the origin on the live topology.

        The holder re-resolves the next hop from fresh origin-rooted hop
        distances every time, so the route adapts to crashes and
        rewiring; a holder the origin can no longer reach records a
        ``return_path_broken`` fault and lets the origin's timeout retry
        the walk.
        """
        record = self._lifecycle.live_record(message.walker_id, message.attempt)
        if record is None:
            return
        if message.at_node == message.origin:
            self._lifecycle.complete(record, message.sampled_node)
            return
        if message.origin not in self._graph or message.at_node not in self._graph:
            self._fault_log.record(
                self._transport.now,
                "return_path_broken",
                walker_id=message.walker_id,
                node=message.at_node,
            )
            return
        distances = self._graph.hop_distances(message.origin)
        my_distance = distances.get(message.at_node)
        next_hop: int | None = None
        if my_distance is not None:
            for neighbor in self._graph.neighbors(message.at_node):
                if distances.get(neighbor) == my_distance - 1:
                    next_hop = neighbor
                    break
        if next_hop is None:
            self._fault_log.record(
                self._transport.now,
                "return_path_broken",
                walker_id=message.walker_id,
                node=message.at_node,
            )
            return
        # ``replace`` keeps every other field — including ``ctx`` —
        # untouched: forwarding never re-mints context (DGL015)
        forwarded = replace(message, at_node=next_hop)
        self._lifecycle.note_ctx_forward(
            message.walker_id, forwarded.ctx, message.at_node, next_hop
        )

        def deliver() -> None:
            self._handle_return(forwarded)

        self._transmit(
            message.attempt,
            KIND_RETURN,
            message.at_node,
            next_hop,
            message.walker_id,
            message.ctx,
            deliver,
        )
