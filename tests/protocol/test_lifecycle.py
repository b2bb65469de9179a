"""The walk lifecycle state machine, exhaustively.

The machine is data (:data:`repro.protocol.lifecycle.TRANSITIONS`), so
the tests enumerate it: every legal ``(phase, event)`` pair advances to
its declared target, every illegal pair raises ``AssertionError``, and
structural invariants (terminal phases have no outgoing edges, every
phase and event appears in the table) hold by construction.

The property test then drives a real :class:`WalkLifecycle` over a
:class:`SimTransport` with a hypothesis-chosen per-attempt behavior —
complete after a delay, fail outright, or go silent and let the
supervision timeout fire — and asserts that *every* interleaving of
completions, failures, timeouts, and stale-attempt races lands the walk
in a terminal phase with consistent bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import FaultLog
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.tracer import NULL_TRACER
from repro.protocol.lifecycle import (
    EVENTS,
    FAILED,
    IN_FLIGHT,
    PENDING,
    PHASES,
    RETRYING,
    TERMINAL_PHASES,
    TRANSITIONS,
    DONE,
    RetryPolicy,
    WalkLifecycle,
    next_phase,
)
from repro.protocol.routing import UniformRouting
from repro.protocol.transport import SimTransport
from repro.sim.engine import SimulationEngine


class TestTransitionTable:
    @pytest.mark.parametrize(
        "phase,event", [(p, e) for p in PHASES for e in EVENTS]
    )
    def test_every_pair_is_decided(self, phase, event):
        """Legal pairs advance per the table; illegal pairs assert."""
        if (phase, event) in TRANSITIONS:
            assert next_phase(phase, event) == TRANSITIONS[(phase, event)]
        else:
            with pytest.raises(AssertionError):
                next_phase(phase, event)

    def test_terminal_phases_have_no_outgoing_edges(self):
        for phase, _event in TRANSITIONS:
            assert phase not in TERMINAL_PHASES

    def test_every_phase_and_event_appears(self):
        sources = {phase for phase, _ in TRANSITIONS}
        targets = set(TRANSITIONS.values())
        assert sources | targets == set(PHASES)
        assert {event for _, event in TRANSITIONS} == set(EVENTS)

    def test_only_pending_is_unreachable(self):
        """PENDING is the entry phase: nothing transitions back into it."""
        assert PENDING not in set(TRANSITIONS.values())

    def test_declared_shape_is_pinned(self):
        """The walk phase graph of DESIGN.md §5, verbatim."""
        assert TRANSITIONS == {
            (PENDING, "launch"): IN_FLIGHT,
            (IN_FLIGHT, "timeout"): RETRYING,
            (RETRYING, "retry"): IN_FLIGHT,
            (IN_FLIGHT, "complete"): DONE,
            (IN_FLIGHT, "fail"): FAILED,
            (RETRYING, "fail"): FAILED,
        }


def _lifecycle(retry):
    """A real lifecycle over a reliable 4-node transport."""
    graph = OverlayGraph(mesh_topology(4), n_nodes=4)
    engine = SimulationEngine()
    transport = SimTransport(graph, engine, 1, FaultLog())
    lifecycle = WalkLifecycle(
        transport,
        NULL_TRACER,
        engine.clock,
        UniformRouting(np.random.default_rng(0)),
        retry=retry,
    )
    return lifecycle, transport


#: one behavior per attempt: ("complete"|"fail", delay) acts after
#: ``delay`` ticks through the stale-attempt guard; "silent" lets the
#: supervision timeout fire instead
_BEHAVIOR = st.one_of(
    st.tuples(st.just("complete"), st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=12)),
    st.just(("silent", 0)),
)


class TestLifecycleProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        behaviors=st.lists(_BEHAVIOR, min_size=1, max_size=6),
        timeout=st.integers(min_value=1, max_value=6),
        max_retries=st.integers(min_value=0, max_value=4),
    )
    def test_any_interleaving_ends_terminal(
        self, behaviors, timeout, max_retries
    ):
        retry = RetryPolicy(timeout=timeout, max_retries=max_retries)
        lifecycle, transport = _lifecycle(retry)

        def inject(record, attempt):
            what, delay = behaviors[min(attempt - 1, len(behaviors) - 1)]
            if what == "silent":
                return  # the origin-side timeout must resolve this

            def act(_time):
                # mirror the executor: a delayed delivery for a
                # superseded attempt must be dropped, not applied
                live = lifecycle.live_record(record.walker_id, attempt)
                if live is None:
                    return
                if what == "complete":
                    lifecycle.complete(live, live.origin)
                else:
                    lifecycle.fail(live, "injected")

            transport.schedule(delay, act)

        lifecycle.bind(inject)
        walker_id = lifecycle.launch(origin=0, walk_length=3)
        lifecycle.drive([walker_id], deadline=None)

        record = lifecycle.record(walker_id)
        assert record.finished, "walk left in a non-terminal phase"
        assert record.phase in TERMINAL_PHASES
        assert (walker_id in lifecycle.outcomes) == record.done
        assert 1 <= record.attempt <= max_retries + 1
        stats = lifecycle.stats
        assert stats.launched == 1
        assert stats.completed + stats.failed == 1
        assert stats.timeouts == record.timeouts
        if record.done:
            outcome = lifecycle.outcomes[walker_id]
            assert outcome.attempts == record.attempt

    def test_unsupervised_silent_walk_fails_at_deadline(self):
        """Without a RetryPolicy a lost walk is only caught by drive()'s
        deadline sweep — and must still land in FAILED."""
        lifecycle, _transport = _lifecycle(retry=None)
        lifecycle.bind(lambda record, attempt: None)
        walker_id = lifecycle.launch(origin=0, walk_length=3)
        lifecycle.drive([walker_id], deadline=50)
        assert lifecycle.record(walker_id).phase == FAILED
        assert walker_id not in lifecycle.outcomes
