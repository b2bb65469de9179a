"""The delivery substrate of the protocol stack.

A :class:`Transport` owns everything between "this node sends a message"
and "that node's handler runs": hop latency, latency jitter, message
loss, correlated partition cuts, and crashed receivers. The layers above
it (:mod:`repro.protocol.lifecycle`, :mod:`repro.protocol.walkers`)
never touch the fault model directly — they hand the transport a
``deliver`` thunk and the transport decides whether, and when, it runs.

The interface is deliberately asyncio-shaped: ``send`` is fire-and-
forget, ``schedule`` returns a cancellable handle (``asyncio.call_later``
semantics), and ``run_all``/``run_until`` are "drain the event loop"
operations. A future asyncio backend implements the same five methods
over a real event loop; :class:`SimTransport` implements them over the
:class:`~repro.sim.engine.SimulationEngine` so simulated runs stay
deterministic and seed-exact.

Every undeliverable message is recorded on the transport's
:class:`~repro.network.faults.FaultLog` — never raised — because
delivery failures are *data* in an unreliable overlay, not errors:

* ``partition_drop`` — the edge crosses an open partition cut (or a
  flapped link); the sender paid for a message the cut swallows whole.
* ``message_loss`` — the link's independent per-hop loss draw fired.
* ``crashed_receiver`` — the receiver left the overlay while the
  message was in flight.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.network.faults import FaultLog, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.partitions import PartitionPlan
from repro.sim.engine import Event, SimulationEngine

#: message kinds a transport carries (ledger categories are derived from
#: these by the orchestrator, with retry-attempt traffic split out)
KIND_WALK = "walk"
KIND_RETURN = "return"


class Transport(Protocol):
    """Unreliable point-to-point delivery plus timer scheduling.

    Implementations own the failure model; callers own the cost model
    (messages are tallied at the call site *before* ``send`` because a
    lost message was still sent). ``fault_log`` is the runtime's one
    fault log; the layers above record their own failures on it too.
    """

    fault_log: FaultLog

    @property
    def now(self) -> int:
        """Current transport time in ticks."""
        ...

    def send(
        self,
        kind: str,
        from_node: int,
        to_node: int,
        walker_id: int,
        deliver: Callable[[], None],
    ) -> None:
        """Deliver ``deliver`` at ``to_node`` after the hop latency.

        May drop the message (loss, partition, crashed receiver); every
        drop is recorded on the fault log, never raised.
        """
        ...

    def schedule(self, delay: int, action: Callable[[int], None]) -> Event:
        """Run ``action(time)`` after ``delay`` ticks; cancellable."""
        ...

    def run_all(self) -> None:
        """Drain the event queue (drive until quiescent)."""
        ...

    def run_until(self, deadline: int) -> None:
        """Drive the event queue up to absolute time ``deadline``."""
        ...


class SimTransport:
    """:class:`Transport` over the discrete-event simulation engine.

    With ``faults`` and ``partitions`` left at ``None`` the transport is
    a perfectly reliable network with fixed ``hop_latency`` — and
    bit-identical traffic to the pre-failure-model implementation. The
    hot-path flags (``_lossy``, ``_jittery``) are precomputed from the
    (frozen) fault config so a noop plan costs no per-message draws.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        simulation: SimulationEngine,
        hop_latency: int,
        fault_log: FaultLog,
        faults: FaultPlan | None = None,
        partitions: PartitionPlan | None = None,
    ) -> None:
        self._graph = graph
        self._simulation = simulation
        self._hop_latency = hop_latency
        self.fault_log = fault_log
        self._faults = faults
        self._partitions = partitions
        self._lossy = faults is not None and faults.config.message_loss > 0.0
        self._jittery = faults is not None and faults.config.latency_jitter > 0

    @property
    def now(self) -> int:
        return self._simulation.now

    def send(
        self,
        kind: str,
        from_node: int,
        to_node: int,
        walker_id: int,
        deliver: Callable[[], None],
    ) -> None:
        """One unreliable delivery; every failure is a fault event.

        Delivery runs ``deliver`` after the hop latency (plus jitter
        under a fault plan) unless an open partition (or flapped link)
        cuts the ``from_node -> to_node`` edge, the link drops it, or
        the receiver has crashed by then.
        """
        partitions = self._partitions
        if (
            partitions is not None
            and partitions.active
            and partitions.blocked(from_node, to_node)
        ):
            # correlated drop: the sender paid for a message the cut
            # swallows whole — exactly how a partitioned overlay looks
            # from the inside (no error, just silence)
            self.fault_log.record(
                self._simulation.now,
                "partition_drop",
                walker_id=walker_id,
                node=to_node,
                detail=f"({from_node}, {to_node})",
            )
            return
        faults = self._faults
        if self._lossy and faults is not None and faults.message_lost():
            self.fault_log.record(
                self._simulation.now,
                "message_loss",
                walker_id=walker_id,
                node=to_node,
            )
            return
        delay = (
            faults.delivery_delay(self._hop_latency)
            if self._jittery and faults is not None
            else self._hop_latency
        )

        def handle_delivery(time: int) -> None:
            if to_node not in self._graph:
                self.fault_log.record(
                    time, "crashed_receiver", walker_id=walker_id, node=to_node
                )
                return
            deliver()

        self._simulation.schedule_in(delay, handle_delivery)

    def schedule(self, delay: int, action: Callable[[int], None]) -> Event:
        return self._simulation.schedule_in(delay, action)

    def run_all(self) -> None:
        self._simulation.run_all()

    def run_until(self, deadline: int) -> None:
        self._simulation.run_until(deadline)
