"""Shared snapshot-evaluation result type.

Both evaluators (independent and repeated sampling) produce a
:class:`SnapshotEstimate`: the mean estimate, the scaled aggregate
estimate, the estimator's variance (of the *mean* estimator), and the
sample accounting the experiments aggregate (total / fresh / retained).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.estimators import (
    achieved_confidence,
    achieved_epsilon,
    confidence_quantile,
)
from repro.db.aggregates import AggregateOp, mean_error_budget, scale_factor


@dataclass(frozen=True)
class SnapshotEstimate:
    """Result of one snapshot-query evaluation.

    ``variance`` is the estimated variance of the mean estimator;
    ``aggregate`` is the mean scaled to the query's aggregate (times ``N``
    for SUM/COUNT). ``n_fresh`` counts samples drawn through the sampling
    operator this occasion; ``n_retained`` counts re-evaluated samples
    carried over from the previous occasion.

    Degradation contract (failure model): when the overlay lost samples
    and the evaluator could not reach the promised ``(epsilon, p)``, the
    estimate is still returned but flagged ``degraded=True`` with
    ``achieved_epsilon`` (half-width actually attained at the promised
    confidence) and ``achieved_confidence`` (confidence actually attained
    at the promised epsilon) filled in — the honest re-statement of Eq. 5
    for the samples that made it back. Both are ``None`` on non-degraded
    estimates.

    ``reachable_fraction`` extends the contract to *correlated* failures
    (overlay partitions): it is the fraction of live nodes the querying
    node could reach when the samples were drawn. While a partition is
    open it is ``< 1.0``, the estimate is flagged degraded, and
    ``population_size`` / ``aggregate`` are re-scoped to the reachable
    sub-population — the estimate answers the query *over the population
    that was actually sampleable*, stated honestly, instead of silently
    pretending to cover the whole relation.
    """

    time: int
    mean: float
    aggregate: float
    variance: float
    n_total: int
    n_fresh: int
    n_retained: int
    population_size: int
    degraded: bool = False
    achieved_epsilon: float | None = None
    achieved_confidence: float | None = None
    reachable_fraction: float = 1.0

    @classmethod
    def stated(
        cls,
        time: int,
        op: AggregateOp,
        mean: float,
        variance: float,
        n_fresh: int,
        n_retained: int,
        population: int,
        epsilon: float,
        confidence: float,
        degraded: bool,
        reachable_fraction: float = 1.0,
    ) -> SnapshotEstimate:
        """The estimate of ``mean`` over ``population``, precision stated.

        The one place the Eq. 5 re-statement is made: the aggregate is
        ``mean`` scaled to ``population``, and a degraded estimate carries
        the half-width it attained at the promised ``confidence`` and the
        confidence it attained at the promised aggregate ``epsilon``
        (restated as a mean-level budget for ``population``).
        """
        scale = scale_factor(op, population)
        epsilon_mean = mean_error_budget(op, epsilon, population)
        return cls(
            time=time,
            mean=mean,
            aggregate=mean * scale,
            variance=variance,
            n_total=n_fresh + n_retained,
            n_fresh=n_fresh,
            n_retained=n_retained,
            population_size=population,
            degraded=degraded,
            achieved_epsilon=(
                achieved_epsilon(variance, confidence) * scale
                if degraded
                else None
            ),
            achieved_confidence=(
                achieved_confidence(epsilon_mean, variance)
                if degraded and epsilon_mean != float("inf")
                else None
            ),
            reachable_fraction=reachable_fraction,
        )

    def half_width(self, confidence: float) -> float:
        """Achieved confidence-interval half width for the *mean* estimate."""
        return confidence_quantile(confidence) * math.sqrt(max(0.0, self.variance))
