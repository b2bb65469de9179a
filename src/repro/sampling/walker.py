"""Random-walk sampling agents.

A sampling agent starts at the originating node and is forwarded from node
to node with the Metropolis probabilities until the walk has mixed; the
node it then sits on is the sample (Section V). Walks run over one
immutable :class:`WalkContext` snapshot of the overlay, and
:func:`batch_walk` advances many agents in lock-step with vectorized numpy
operations. This is the paper's "batch mode" (Section VI-A): to derive
``n`` samples, ``n`` walks run with overlapping convergence time.

Cost model: every *proposal* costs one message (the agent, carrying the
weight probe, crosses one overlay link; a rejected proposal still crossed
the link and must hop back, which we conservatively count as the same one
message the paper's per-step accounting uses). Lazy self-loops are decided
locally and are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import SamplingError, TopologyError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.sampling.weights import WeightFunction


@dataclass(frozen=True)
class WalkContext:
    """Immutable snapshot of the overlay for one sampling occasion.

    The paper assumes the network is effectively static within a sampling
    occasion (Section II); the context freezes topology and weights so all
    walks of the occasion see one consistent graph. ``graph_version``
    records which overlay version was frozen, letting the operator detect
    staleness.

    ``accept[s]`` is the Metropolis acceptance ``min(1, w_j d_i / (w_i d_j))``
    of the proposal along CSR slot ``s`` (from row ``i`` to ``j =
    targets[s]``), and ``1.0`` where ``w_i == 0``. It depends only on the
    snapshot, so it is computed once here rather than on every walk step.
    """

    node_ids: np.ndarray  # compact index -> node id
    offsets: np.ndarray  # CSR row offsets
    targets: np.ndarray  # CSR neighbor compact indices
    degrees: np.ndarray  # degree per compact index
    weights: np.ndarray  # weight per compact index
    accept: np.ndarray  # Metropolis acceptance per CSR slot
    graph_version: int

    @classmethod
    def from_graph(
        cls, graph: OverlayGraph, weight: WeightFunction
    ) -> "WalkContext":
        node_ids, offsets, targets = graph.csr()
        return cls._freeze(graph, weight, node_ids, offsets, targets)

    @classmethod
    def from_subgraph(
        cls,
        graph: OverlayGraph,
        weight: WeightFunction,
        nodes: Iterable[int],
    ) -> "WalkContext":
        """Snapshot of the subgraph induced by ``nodes``.

        Used when a partition confines sampling to the origin's reachable
        region: the walk must mix over the population it can actually
        touch, not the full (momentarily fictional) overlay. Edges whose
        far endpoint falls outside ``nodes`` are dropped; the remaining
        subgraph must leave no member isolated (a reachable-set scope is
        connected by construction, so this only trips on bad callers).
        """
        node_ids = np.array(sorted(int(node) for node in nodes), dtype=np.int64)
        if node_ids.size == 0:
            raise SamplingError("cannot build a walk context over no nodes")
        member = set(node_ids.tolist())
        offsets = np.zeros(node_ids.size + 1, dtype=np.int64)
        kept: list[int] = []
        for i, node in enumerate(node_ids):
            local = [
                neighbor
                for neighbor in graph.neighbors(int(node))
                if neighbor in member
            ]
            offsets[i + 1] = offsets[i] + len(local)
            kept.extend(local)
        index_of = {int(node): i for i, node in enumerate(node_ids)}
        targets = np.array(
            [index_of[neighbor] for neighbor in kept], dtype=np.int64
        )
        return cls._freeze(graph, weight, node_ids, offsets, targets)

    @classmethod
    def _freeze(
        cls,
        graph: OverlayGraph,
        weight: WeightFunction,
        node_ids: np.ndarray,
        offsets: np.ndarray,
        targets: np.ndarray,
    ) -> "WalkContext":
        """Validate a CSR snapshot, weigh its nodes and precompute ``accept``."""
        degrees = np.diff(offsets)
        if np.any(degrees == 0) and node_ids.size > 1:
            isolated = node_ids[degrees == 0]
            raise TopologyError(
                f"snapshot leaves nodes {isolated[:5].tolist()} isolated; "
                "the sampling walk cannot reach or leave them"
            )
        weights = np.array([weight(node) for node in node_ids.tolist()], dtype=float)
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise SamplingError("weights must be finite and non-negative")
        if weights.sum() <= 0:
            raise SamplingError("all node weights are zero")
        # keep these exactly the elementwise operations of the per-step
        # reference kernel in the tests: walks must stay bit-reproducible
        source = np.repeat(np.arange(node_ids.size, dtype=np.int64), degrees)
        weight_i = weights[source]
        degree_i = degrees[source]
        ratio = np.empty(targets.size, dtype=float)
        zero_mask = weight_i == 0.0
        ratio[zero_mask] = 1.0
        safe = ~zero_mask
        ratio[safe] = (weights[targets][safe] * degree_i[safe]) / (
            weight_i[safe] * degrees[targets][safe]
        )
        return cls(
            node_ids=node_ids,
            offsets=offsets,
            targets=targets,
            degrees=degrees.astype(np.int64),
            weights=weights,
            accept=np.minimum(1.0, ratio),
            graph_version=graph.version,
        )

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.size)

    def compact_index(self, node: int) -> int:
        """Compact index of overlay node id ``node``."""
        return int(self.compact_indices([node])[0])

    def compact_indices(self, nodes: Iterable[int]) -> np.ndarray:
        """Compact indices of overlay node ids ``nodes``, in order."""
        wanted = np.fromiter(nodes, dtype=np.int64)
        positions = np.searchsorted(self.node_ids, wanted)
        found = np.minimum(positions, self.node_ids.size - 1)
        missing = self.node_ids[found] != wanted
        if np.any(missing):
            node = int(wanted[np.argmax(missing)])
            raise SamplingError(f"node {node} is not in this walk context")
        return positions

    def target_distribution(self) -> np.ndarray:
        """The normalized stationary law ``p_v`` over compact indices."""
        return self.weights / self.weights.sum()


def batch_walk(
    context: WalkContext,
    start_positions: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    ledger: MessageLedger | None = None,
    laziness: float = 0.5,
) -> np.ndarray:
    """Advance many agents ``steps`` transitions in lock-step.

    ``start_positions`` holds *compact indices* (see
    :meth:`WalkContext.compact_index`); the return value is the final
    compact indices. All agents share the frozen context, so this is
    exactly ``k`` independent chains, vectorized per transition.
    """
    if steps < 0:
        raise SamplingError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= laziness < 1.0:
        raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
    positions = np.array(start_positions, dtype=np.int64, copy=True)
    if positions.size == 0 or steps == 0:
        return positions
    n_walkers = positions.size
    everyone = np.arange(n_walkers)
    proposals_sent = 0
    # degrees are small integers, exact as floats, so the products are
    # unchanged; a float-by-float multiply skips the per-step type
    # resolution a float-by-int one pays
    degrees = context.degrees.astype(float)
    offsets = context.offsets
    targets = context.targets
    accept = context.accept
    for _ in range(steps):
        if laziness > 0.0:
            active = (rng.random(n_walkers) >= laziness).nonzero()[0]
        else:
            active = everyone
        k = active.size
        if k == 0:
            continue
        current = positions[active]
        # one draw for the neighbor picks, then the acceptance coins: the
        # same stream, in the same order, as two k-sized draws
        coins = rng.random(2 * k)
        slots = offsets[current] + (coins[:k] * degrees[current]).astype(np.int64)
        accepted = coins[k:] < accept[slots]
        positions[active[accepted]] = targets[slots[accepted]]
        proposals_sent += k
    if ledger is not None:
        ledger.record_walk_steps(proposals_sent)
    return positions
