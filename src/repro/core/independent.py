"""Independent sampling snapshot evaluation (Section IV-B1).

Each snapshot query is answered from scratch: draw uniformly random tuples
(with replacement, via two-stage sampling), estimate the mean by the sample
mean, and size the sample by the CLT (Eq. 6). Because the population
standard deviation is unknown, the evaluator samples *sequentially*: a
pilot round estimates ``sigma``, the required ``n`` is recomputed, and
extra samples are drawn until the drawn count covers the requirement
(bounded by ``max_rounds`` top-up rounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.estimators import (
    ratio_estimate,
    required_sample_size,
    sample_mean_and_variance,
    variance_target,
)
from repro.core.query import Query
from repro.core.snapshot import SnapshotEstimate
from repro.db.aggregates import AggregateOp, mean_error_budget, sample_contribution
from repro.db.relation import P2PDatabase
from repro.errors import QueryError
from repro.sampling.operator import SampleSource


@dataclass(frozen=True)
class EvaluatorConfig:
    """Sequential-sampling knobs shared by both evaluators.

    ``pilot_size`` seeds the sigma estimate on the first round;
    ``max_rounds`` bounds the top-up iterations; ``max_sample_size`` guards
    against infeasible precision requests; ``sigma_floor`` keeps the size
    computation meaningful when the pilot happens to see identical values.
    """

    pilot_size: int = 30
    max_rounds: int = 4
    max_sample_size: int = 1_000_000
    sigma_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.pilot_size < 2:
            raise QueryError(f"pilot_size must be >= 2, got {self.pilot_size}")
        if self.max_rounds < 1:
            raise QueryError(f"max_rounds must be >= 1, got {self.max_rounds}")


def draw_contributions(
    source: SampleSource,
    database: P2PDatabase,
    origin: int,
    query: Query,
    n: int,
) -> tuple[list[int], list[float], list[float]]:
    """Draw up to ``n`` tuples; returns their ids, ``y`` values and indicators.

    Partial mode: under the failure model the overlay may lose walks, so
    fewer than ``n`` tuples can come back. The evaluators degrade
    (flagging the estimate) rather than aborting the query.
    """
    if n <= 0:
        return [], [], []
    samples = source.sample_tuples(database, n, origin, allow_partial=True)
    pairs = [
        sample_contribution(query.op, query.expression, query.predicate, s.row)
        for s in samples
    ]
    return (
        [s.tuple_id for s in samples],
        [pair[0] for pair in pairs],
        [pair[1] for pair in pairs],
    )


def sequential_sample(
    draw: Callable[[int], tuple[list[int], list[float]]],
    config: EvaluatorConfig,
    epsilon_mean: float,
    confidence: float,
) -> tuple[list[int], list[float], int]:
    """Eq. 6 sequential sampling of one mean; returns ``(ids, values, needed)``.

    A pilot of ``config.pilot_size`` draws estimates ``sigma``; Eq. 6 then
    sizes ``needed``, and the shortfall is drawn again for at most
    ``config.max_rounds`` rounds, stopping early when a draw comes back
    empty. ``len(values) < needed`` means the overlay returned fewer
    samples than Eq. 6 required: the estimate is degraded.
    """
    ids, values = draw(config.pilot_size)
    if not values:
        raise QueryError(
            "the overlay returned no samples at all; cannot estimate"
        )
    needed = len(values)
    if epsilon_mean == float("inf"):
        return ids, values, needed
    for _ in range(config.max_rounds):
        _, variance = sample_mean_and_variance(np.array(values))
        needed = required_sample_size(
            max(math.sqrt(variance), config.sigma_floor),
            epsilon_mean,
            confidence,
            minimum=config.pilot_size,
            maximum=config.max_sample_size,
        )
        if needed <= len(values):
            break
        extra_ids, extra_values = draw(needed - len(values))
        if not extra_values:
            break  # the overlay is delivering nothing; degrade
        ids.extend(extra_ids)
        values.extend(extra_values)
    return ids, values, needed


class IndependentEvaluator:
    """Evaluates snapshot queries by classical independent sampling.

    Parameters
    ----------
    database, operator, origin:
        Where samples come from: the operator's two-stage sampling against
        ``database``, walks originating at ``origin``.
    query:
        The aggregate query; its op defines the value transform and scale.
    population_size_provider:
        Callable returning the relation size ``N`` used to scale SUM/COUNT
        (oracle in experiments, estimator in deployments). AVG ignores it.
    """

    def __init__(
        self,
        database: P2PDatabase,
        operator: SampleSource,
        origin: int,
        query: Query,
        population_size_provider: Callable[[], float] | None = None,
        config: EvaluatorConfig | None = None,
    ) -> None:
        self._database = database
        self._operator = operator
        self._origin = origin
        self._query = query
        self._population_size_provider = (
            population_size_provider
            if population_size_provider is not None
            else lambda: database.n_tuples
        )
        self._config = config if config is not None else EvaluatorConfig()
        self._last_sigma: float | None = None

    @property
    def config(self) -> EvaluatorConfig:
        return self._config

    def plan_demand(self, epsilon: float, confidence: float) -> int:
        """Forecast how many fresh samples the next evaluate() will draw.

        Pure read (no sampling, no state change): before the first
        occasion there is no sigma estimate, so the forecast is the pilot
        size; afterwards it is Eq. 6 sized from the last occasion's sigma.
        The session uses this to size coalesced prefetch batches — a wrong
        forecast only shifts the pool hit/miss split, never correctness,
        because evaluate() still tops up sequentially.
        """
        config = self._config
        if self._last_sigma is None:
            return config.pilot_size
        population = int(round(self._population_size_provider()))
        epsilon_mean = mean_error_budget(self._query.op, epsilon, population)
        if epsilon_mean == float("inf"):
            return config.pilot_size
        return required_sample_size(
            self._last_sigma,
            epsilon_mean,
            confidence,
            minimum=config.pilot_size,
            maximum=config.max_sample_size,
        )

    def _sample_values(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw up to ``n`` samples; returns ``(y, indicator)`` arrays."""
        _, values, indicators = draw_contributions(
            self._operator, self._database, self._origin, self._query, n
        )
        return np.array(values, dtype=float), np.array(indicators, dtype=float)

    def evaluate(
        self, time: int, epsilon: float, confidence: float
    ) -> SnapshotEstimate:
        """Evaluate the snapshot query at ``time`` to ``(epsilon, p)``.

        ``epsilon`` is in aggregate units; it is converted to the mean-level
        budget using the population size (AVG passes through). AVG uses the
        ratio estimator, which reduces to the plain sample mean when the
        query has no predicate.
        """
        population = int(round(self._population_size_provider()))
        op = self._query.op
        epsilon_mean = mean_error_budget(op, epsilon, population)
        if op is AggregateOp.AVG:
            mean, variance, n, degraded = self._evaluate_ratio(
                epsilon_mean, confidence
            )
        else:
            mean, variance, n, degraded = self._evaluate_mean(
                epsilon_mean, confidence
            )
        return SnapshotEstimate.stated(
            time, op, mean, variance, n, 0, population, epsilon, confidence, degraded
        )

    def _evaluate_mean(
        self, epsilon_mean: float, confidence: float
    ) -> tuple[float, float, int, bool]:
        """Sequential CLT sizing on the (masked) per-tuple values.

        Returns ``(mean, variance-of-mean, n, degraded)``. ``degraded``
        means the overlay returned fewer samples than Eq. 6 required, so
        the promised precision does not hold (the estimate itself is still
        unbiased; only its interval widens).
        """
        config = self._config
        _, drawn, needed = sequential_sample(
            lambda n: draw_contributions(
                self._operator, self._database, self._origin, self._query, n
            )[:2],
            config,
            epsilon_mean,
            confidence,
        )
        values = np.array(drawn, dtype=float)
        mean, variance = sample_mean_and_variance(values)
        degraded = values.size < needed
        self._last_sigma = max(
            float(np.sqrt(variance)), config.sigma_floor
        )
        return mean, variance / values.size, int(values.size), degraded

    def _evaluate_ratio(
        self, epsilon_mean: float, confidence: float
    ) -> tuple[float, float, int, bool]:
        """Sequential sizing of the ratio estimator (AVG, maybe filtered).

        Returns ``(estimate, variance, n, degraded)``; ``degraded`` means
        the final estimator variance still exceeds the ``(epsilon, p)``
        variance target after all top-up rounds.
        """
        config = self._config
        values, indicators = self._sample_values(config.pilot_size)
        if values.size == 0:
            raise QueryError(
                "the overlay returned no samples at all; cannot estimate"
            )
        estimate, variance = None, None
        for round_index in range(config.max_rounds + 1):
            try:
                estimate, variance = ratio_estimate(values, indicators)
            except QueryError:
                if round_index >= config.max_rounds:
                    raise
                # nothing qualified yet: widen the sample and retry
                extra_values, extra_indicators = self._sample_values(
                    len(values)
                )
                if extra_values.size == 0:
                    raise
                values = np.concatenate([values, extra_values])
                indicators = np.concatenate([indicators, extra_indicators])
                continue
            if epsilon_mean == float("inf") or round_index >= config.max_rounds:
                break
            target = variance_target(epsilon_mean, confidence)
            if variance <= target:
                break
            # per-sample variance rate; size the full requirement from it
            rate = variance * values.size
            needed = max(values.size + 1, int(np.ceil(rate / target)))
            if needed > config.max_sample_size:
                raise QueryError(
                    f"required sample size {needed} exceeds the configured "
                    f"maximum {config.max_sample_size}; the precision "
                    f"request is infeasible for this population"
                )
            extra_values, extra_indicators = self._sample_values(
                needed - values.size
            )
            if extra_values.size == 0:
                break  # the overlay is delivering nothing; degrade
            values = np.concatenate([values, extra_values])
            indicators = np.concatenate([indicators, extra_indicators])
        assert estimate is not None and variance is not None
        degraded = epsilon_mean != float("inf") and variance > variance_target(
            epsilon_mean, confidence
        )
        # per-sample sigma equivalent of the ratio estimator's variance
        # rate, so plan_demand can forecast via the same Eq. 6 sizing
        self._last_sigma = max(
            float(np.sqrt(variance * values.size)), config.sigma_floor
        )
        return estimate, variance, int(values.size), degraded
