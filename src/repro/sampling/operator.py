"""The sampling operator ``S`` (Sections III and V).

Given a weight function, :class:`SamplingOperator` derives random sample
nodes whose distribution is within total-variation distance ``gamma`` of
``p_v = w_v / sum w_u``, by Metropolis random walks. On top of node
sampling it implements the two tuple-sampling schemes of Section III:

* **two-stage sampling** — node weighted by content size ``m_v``, then a
  uniform local tuple: uniform over the whole relation (Digest's choice);
* **cluster sampling** — a node sample returns its entire fragment as a
  batch (provided for the ablation showing why Digest avoids it).

Walk-length policy
------------------
The guaranteed length is Theorem 3's bound
``tau(gamma) <= theta^-1 log(1/(p_min gamma))`` with ``theta`` the
eigengap of the forwarding matrix. Computing ``theta`` exactly on every
occasion would dominate the simulation, so the operator caches it and
recomputes only when the overlay has drifted materially (node count
changed by ``recompute_drift`` or the weight fingerprint changed while
uncached); callers can also pin ``walk_length`` explicitly.

Batch mode and continued walks (Section VI-A)
---------------------------------------------
``sample_nodes(n=...)`` advances ``n`` agents in lock-step. After the
first convergence the operator keeps the walker positions; later requests
*continue* those walks, which only need the reset time (the relaxation
time ``ceil(1/theta)``) instead of the full mixing time — the optimization
the paper uses to expedite its experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.db.relation import P2PDatabase
from repro.errors import SamplingError
from repro.network.faults import FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan
from repro.obs.schema import SPAN_SAMPLE_ACQUISITION, SPAN_TUPLE_SAMPLING
from repro.obs.tracer import NULL_TRACER, Tracer, bridge_fault_log
from repro.sampling import mixing
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import WeightFunction, content_size_weights


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning knobs for the sampling operator.

    ``gamma`` is the total-variation tolerance of Definition 2. With
    ``walk_length=None`` the length comes from ``length_policy``:

    * ``"empirical"`` (default) — the exact number of steps after which the
      walk started at the originator is within ``gamma`` of the target,
      found by iterating the start distribution with sparse matvecs. This
      matches what the paper *measures* (tens of messages per sample).
    * ``"theorem3"`` — the analytic worst-case bound
      ``theta^-1 log(1/(p_min gamma))``, guaranteed but conservative
      (typically ~10x the empirical length).

    Both are recomputed when the overlay drifts by more than
    ``recompute_drift`` in node count. ``reset_length`` defaults to the
    relaxation time ``ceil(1/theta)``. Continued walks can be disabled for
    ablation with ``continued_walks=False``.
    """

    gamma: float = 0.01
    laziness: float = 0.5
    walk_length: int | None = None
    reset_length: int | None = None
    continued_walks: bool = True
    recompute_drift: float = 0.10
    max_walk_length: int = 1_000_000
    length_policy: str = "empirical"

    def __post_init__(self) -> None:
        if self.length_policy not in ("empirical", "theorem3"):
            raise SamplingError(
                f"length_policy must be 'empirical' or 'theorem3', "
                f"got {self.length_policy!r}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise SamplingError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 <= self.laziness < 1.0:
            raise SamplingError(f"laziness must be in [0, 1), got {self.laziness}")
        if self.walk_length is not None and self.walk_length < 1:
            raise SamplingError(f"walk_length must be >= 1, got {self.walk_length}")
        if self.reset_length is not None and self.reset_length < 1:
            raise SamplingError(f"reset_length must be >= 1, got {self.reset_length}")
        if not 0.0 < self.recompute_drift <= 1.0:
            raise SamplingError(
                f"recompute_drift must be in (0, 1], got {self.recompute_drift}"
            )


@dataclass(frozen=True)
class TupleSample:
    """One sampled tuple: where it lives and its state when sampled."""

    tuple_id: int
    node: int
    row: dict[str, float]


class SampleSource(Protocol):
    """The slice of the sampling substrate evaluators consume.

    Implemented by :class:`SamplingOperator` itself and by
    :class:`~repro.sampling.pool.PoolLease` (a query's handle on the
    shared :class:`~repro.sampling.pool.SamplePool`) — anything that can
    deliver uniform tuple samples and weighted node samples.
    """

    def sample_tuples(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        max_retries: int = 8,
        allow_partial: bool = False,
    ) -> list[TupleSample]:
        """Draw ``n`` uniformly random tuples (partial under faults)."""
        ...

    def sample_nodes(
        self, weight: WeightFunction, n: int, origin: int
    ) -> list[int]:
        """Draw ``n`` node ids with probability proportional to weight."""
        ...


@dataclass
class _SpectralCache:
    """Cached eigengap-derived walk lengths keyed by overlay drift."""

    n_nodes: int = -1
    origin: int = -1
    gap: float = 0.0
    mix_length: int = 0
    reset_length: int = 0
    valid: bool = False


@dataclass
class _SharedSnapshot:
    """The walk context (and partition scope) one tuple draw's rounds share."""

    context: WalkContext | None = None
    scope: dict[int, int] | None = None


class SamplingOperator:
    """Distributed node/tuple sampling via Metropolis walks.

    Parameters
    ----------
    graph:
        The live overlay. Each direct :meth:`sample_nodes` call takes a
        fresh :class:`WalkContext` snapshot, so no weight goes stale
        across calls; the redraw rounds of one :meth:`sample_tuples` call
        share the snapshot their first round took. The topology arrays come
        from :meth:`OverlayGraph.csr`, which is cached until the overlay
        next changes.
    rng:
        Randomness source (all draws flow through it).
    ledger:
        Optional message ledger; walk proposals and sample-return hops are
        recorded on it.
    config:
        See :class:`SamplerConfig`.
    faults:
        Optional :class:`~repro.network.faults.FaultPlan`. The abstract
        sampler executes walks in batch, so faults act at walk
        granularity: a walk whose chain-plus-return message count loses
        any hop (probability ``1 - (1 - loss)**hops``) delivers no
        sample. Losses are recorded on the plan's log; callers see the
        shortfall via partial results, never an exception.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        config: SamplerConfig | None = None,
        faults: FaultPlan | None = None,
        tracer: Tracer | None = None,
        partitions: PartitionPlan | None = None,
    ) -> None:
        self._graph = graph
        self._rng = rng
        self._ledger = ledger
        self._config = config if config is not None else SamplerConfig()
        self._faults = faults
        #: correlated-failure plan; while a partition is open, walks are
        #: confined to the origin's reachable region (the walk must mix
        #: over the population it can actually touch)
        self._partitions = partitions
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if faults is not None:
            bridge_fault_log(faults.log, self._tracer)
        self._spectral = _SpectralCache()
        self._pool_nodes: list[int] = []  # continued-walk positions (node ids)
        #: set only while :meth:`sample_tuples` runs, so that its redraw
        #: rounds walk the snapshot its first round built
        self._shared_snapshot: _SharedSnapshot | None = None
        self.samples_drawn = 0
        self.walks_started = 0

    @property
    def config(self) -> SamplerConfig:
        return self._config

    @property
    def pool_nodes(self) -> list[int]:
        """Current continued-walk agent positions (copy, node ids)."""
        return list(self._pool_nodes)

    # ------------------------------------------------------------------
    # walk-length policy
    # ------------------------------------------------------------------

    def _walk_lengths(self, context: WalkContext, origin: int) -> tuple[int, int]:
        """(full mixing length, reset length) for the current occasion."""
        config = self._config
        if config.walk_length is not None:
            reset = (
                config.reset_length
                if config.reset_length is not None
                else max(1, config.walk_length // 4)
            )
            return config.walk_length, reset
        cache = self._spectral
        drifted = (
            not cache.valid
            or cache.n_nodes <= 0
            or cache.origin != origin
            or abs(context.n_nodes - cache.n_nodes)
            > config.recompute_drift * cache.n_nodes
        )
        if drifted:
            # the eigengap + mixing-length computation is the host-side
            # hot spot of abstract-mode runs; keep it under one profiled
            # section so `repro trace` output can show its wall cost
            with self._tracer.profile("spectral_recompute"):
                self._recompute_spectral(context, origin)
            cache = self._spectral
        return cache.mix_length, cache.reset_length

    def _recompute_spectral(self, context: WalkContext, origin: int) -> None:
        """Refresh the spectral cache for the current overlay snapshot."""
        config = self._config
        matrix = mixing.sparse_transition_matrix(
            context.offsets, context.targets, context.weights, config.laziness
        )
        gap = mixing.eigengap_sparse(matrix)
        if gap <= 0.0:
            raise SamplingError(
                "zero eigengap: the walk cannot converge on this overlay"
            )
        if config.length_policy == "theorem3":
            positive = context.weights[context.weights > 0]
            p_min = float(positive.min() / context.weights.sum())
            mix_length = mixing.mixing_time_bound(gap, p_min, config.gamma)
        else:
            mix_length = self._empirical_mix_length(
                matrix, context, origin, config.gamma
            )
        if mix_length > config.max_walk_length:
            raise SamplingError(
                f"required walk length {mix_length} exceeds the configured "
                f"maximum {config.max_walk_length}"
            )
        reset_length = (
            config.reset_length
            if config.reset_length is not None
            else mixing.relaxation_time(gap)
        )
        self._spectral = _SpectralCache(
            n_nodes=context.n_nodes,
            origin=origin,
            gap=gap,
            mix_length=mix_length,
            reset_length=reset_length,
            valid=True,
        )

    def _empirical_mix_length(
        self,
        matrix: object,  # scipy.sparse matrix
        context: WalkContext,
        origin: int,
        gamma: float,
    ) -> int:
        """Steps until the walk *from this origin* is within ``gamma`` TV.

        Iterates the origin's point-mass distribution with sparse
        vector-matrix products — O(|E|) per step — and returns the first
        step within tolerance.
        """
        target = context.target_distribution()
        distribution = np.zeros(context.n_nodes)
        distribution[context.compact_index(origin)] = 1.0
        transpose = matrix.T.tocsr()
        for step in range(1, self._config.max_walk_length + 1):
            distribution = transpose @ distribution
            if 0.5 * float(np.abs(distribution - target).sum()) <= gamma:
                return step
        raise SamplingError(
            f"walk from origin {origin} did not mix to gamma={gamma} within "
            f"{self._config.max_walk_length} steps"
        )

    def invalidate_walk_length_cache(self) -> None:
        """Force the next occasion to recompute the spectral walk length."""
        self._spectral = _SpectralCache()

    @property
    def last_eigengap(self) -> float | None:
        """Most recently computed eigengap (None before the first walk)."""
        return self._spectral.gap if self._spectral.valid else None

    # ------------------------------------------------------------------
    # node sampling
    # ------------------------------------------------------------------

    def sample_nodes(
        self,
        weight: WeightFunction,
        n: int,
        origin: int,
    ) -> list[int]:
        """Draw ``n`` sample node ids with probability proportional to weight.

        Runs ``n`` agents in batch mode. With continued walks enabled,
        agents left over from previous occasions resume from their last
        position and only walk the reset length; new agents (and all agents
        when the feature is off) start at ``origin`` and walk the full
        mixing length.
        """
        if n < 0:
            raise SamplingError(f"cannot draw {n} samples")
        if n == 0:
            return []
        if origin not in self._graph:
            raise SamplingError(f"origin node {origin} is not in the overlay")
        span = self._tracer.span(
            SPAN_SAMPLE_ACQUISITION, n_requested=n, origin=origin
        )
        shared = self._shared_snapshot
        if shared is not None and shared.context is not None:
            context, scope = shared.context, shared.scope
        else:
            scope = None
            partitions = self._partitions
            if partitions is not None and partitions.active:
                scope = partitions.reachable(self._graph, origin)
                if len(scope) <= 1:
                    # the origin is alone on its side of the cut: the only
                    # reachable "sample" is itself, and no walk can leave
                    self._tracer.end(
                        span,
                        n_continued=0,
                        n_fresh=n,
                        mix_length=0,
                        reset_length=0,
                        n_delivered=n,
                    )
                    self.samples_drawn += n
                    return [origin] * n
                context = WalkContext.from_subgraph(self._graph, weight, scope)
            else:
                context = WalkContext.from_graph(self._graph, weight)
            if shared is not None:
                shared.context, shared.scope = context, scope
        mix_length, reset_length = self._walk_lengths(context, origin)
        config = self._config

        continued: list[int] = []
        if config.continued_walks and self._pool_nodes:
            # agents survive only if their node is still in the overlay
            # (and, under a partition, on the origin's side of the cut)
            alive = [
                node
                for node in self._pool_nodes
                if node in self._graph and (scope is None or node in scope)
            ]
            continued = alive[:n]
        n_fresh = n - len(continued)

        final_positions: list[int] = []
        walk_steps: list[int] = []
        if continued:
            starts = context.compact_indices(continued)
            ends = batch_walk(
                context,
                starts,
                reset_length,
                self._rng,
                self._ledger,
                config.laziness,
            )
            final_positions.extend(context.node_ids[ends].tolist())
            walk_steps.extend([reset_length] * len(continued))
        if n_fresh > 0:
            starts = np.full(
                n_fresh, context.compact_index(origin), dtype=np.int64
            )
            ends = batch_walk(
                context,
                starts,
                mix_length,
                self._rng,
                self._ledger,
                config.laziness,
            )
            final_positions.extend(context.node_ids[ends].tolist())
            walk_steps.extend([mix_length] * n_fresh)
            self.walks_started += n_fresh

        if config.continued_walks:
            # pool positions survive even if the *return* message is lost:
            # the agent itself still sits at its final node
            self._pool_nodes = list(final_positions)
        distances: dict[int, int] | None = None
        if self._ledger is not None or self._faults is not None:
            # under a partition the return route is confined to the
            # reachable region, so return-hop accounting uses its BFS
            distances = (
                scope
                if scope is not None
                else self._graph.hop_distances(origin)
            )
        delivered: list[int] = []
        for node, steps in zip(final_positions, walk_steps):
            hops_home = distances.get(node, 0) if distances is not None else 0
            if self._ledger is not None:
                # the messages were sent whether or not any was lost
                self._ledger.record_sample_return(hops_home)
            if self._faults is not None and self._faults.walk_lost(
                steps + hops_home
            ):
                self._faults.record(
                    self._tracer.now(), "walk_lost", node=node
                )
                continue
            delivered.append(node)
        self.samples_drawn += len(delivered)
        # retained-vs-fresh tagging: continued agents only paid the reset
        # length; fresh agents paid the full mixing length from the origin
        self._tracer.end(
            span,
            n_continued=len(continued),
            n_fresh=n_fresh,
            mix_length=mix_length,
            reset_length=reset_length,
            n_delivered=len(delivered),
        )
        return delivered

    # ------------------------------------------------------------------
    # tuple sampling
    # ------------------------------------------------------------------

    def sample_tuples(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        max_retries: int = 8,
        allow_partial: bool = False,
    ) -> list[TupleSample]:
        """Two-stage sampling: ``n`` uniformly random tuples from ``R``.

        Stage one samples nodes with ``w_v = m_v``; stage two draws a
        uniform local tuple at each sampled node. Empty nodes have zero
        weight and are sampled only through numerical noise of the walk;
        any such miss (and any walk lost to the fault plan) is retried, up
        to ``max_retries`` rounds. With ``allow_partial=True`` a remaining
        shortfall returns the tuples actually drawn — the evaluator
        degrades its precision — instead of raising.
        """
        if database.n_tuples == 0:
            raise SamplingError("cannot sample tuples from an empty relation")
        weight = content_size_weights(database)
        span = self._tracer.span(
            SPAN_TUPLE_SAMPLING, n_requested=n, origin=origin
        )
        samples: list[TupleSample] = []
        rounds = 0
        need = n
        # nothing mutates the overlay or the relation between rounds, so
        # they all walk the first round's snapshot
        self._shared_snapshot = _SharedSnapshot()
        try:
            for _ in range(max_retries):
                if need == 0:
                    break
                rounds += 1
                for node in self.sample_nodes(weight, need, origin):
                    store = database.store(node)
                    if len(store) == 0:
                        continue  # zero-weight node reached; re-draw below
                    tuple_id = store.sample_uniform(self._rng)
                    samples.append(
                        TupleSample(
                            tuple_id=tuple_id, node=node, row=store.get(tuple_id)
                        )
                    )
                need = n - len(samples)
        finally:
            self._shared_snapshot = None
        if need > 0:
            if allow_partial:
                if self._faults is not None:
                    self._faults.record(
                        self._tracer.now(),
                        "sample_shortfall",
                        detail=f"{len(samples)} of {n} after {max_retries} rounds",
                    )
                self._tracer.end(
                    span, n_drawn=len(samples), rounds=rounds, partial=True
                )
                return samples
            raise SamplingError(
                f"failed to draw {n} tuples after {max_retries} rounds "
                f"({len(samples)} drawn); is the relation mostly empty?"
            )
        self._tracer.end(span, n_drawn=len(samples), rounds=rounds, partial=False)
        return samples

    def cluster_sample(
        self, database: P2PDatabase, origin: int
    ) -> tuple[int, list[TupleSample]]:
        """Cluster sampling: one node (uniform) and its entire fragment.

        Provided for the two-stage-vs-cluster ablation (Section III argues
        intra-node correlation makes this imprecise for P2P content).
        """
        from repro.sampling.weights import uniform_weights

        node = self.sample_nodes(uniform_weights(), 1, origin)[0]
        store = database.store(node)
        batch = [
            TupleSample(tuple_id=tuple_id, node=node, row=dict(row))
            for tuple_id, row in store.iter_rows()
        ]
        return node, batch

    def reset_pool(self) -> None:
        """Drop continued-walk state (e.g. between independent experiments)."""
        self._pool_nodes = []
