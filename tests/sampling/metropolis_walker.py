"""A single Metropolis sampling agent, stepped one transition at a time.

The test oracle for :func:`repro.sampling.walker.batch_walk`: it walks
the same :class:`~repro.sampling.walker.WalkContext` chain with plain
scalar draws, so per-step behaviour (stays on edges, laziness, ledger
accounting) and the batch kernel's end-point law can be checked against
an implementation simple enough to read at a glance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.network.messaging import MessageLedger
from repro.sampling.walker import WalkContext


class MetropolisWalker:
    """A single Metropolis sampling agent over a :class:`WalkContext`."""

    def __init__(
        self,
        context: WalkContext,
        start_node: int,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        laziness: float = 0.5,
    ) -> None:
        if not 0.0 <= laziness < 1.0:
            raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
        self._context = context
        self._rng = rng
        self._ledger = ledger
        self._laziness = laziness
        self._position = context.compact_index(start_node)
        self.steps_taken = 0
        self.proposals_sent = 0

    @property
    def position(self) -> int:
        """Current node id the agent sits on."""
        return int(self._context.node_ids[self._position])

    def step(self) -> int:
        """One chain transition; returns the (possibly unchanged) node id."""
        context = self._context
        self.steps_taken += 1
        if self._laziness > 0.0 and self._rng.random() < self._laziness:
            return self.position
        i = self._position
        degree_i = int(context.degrees[i])
        offset = int(context.offsets[i])
        j = int(context.targets[offset + int(self._rng.integers(degree_i))])
        self.proposals_sent += 1
        if self._ledger is not None:
            self._ledger.record_walk_steps(1)
        weight_i = context.weights[i]
        weight_j = context.weights[j]
        degree_j = int(context.degrees[j])
        if weight_i == 0.0:
            accept = 1.0
        else:
            accept = min(1.0, (weight_j * degree_i) / (weight_i * degree_j))
        if self._rng.random() < accept:
            self._position = j
        return self.position

    def walk(self, steps: int) -> int:
        """Advance ``steps`` transitions; returns the final node id."""
        if steps < 0:
            raise SamplingError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()
        return self.position
