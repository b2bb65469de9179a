"""Digest's top tier: sample-based continuous query evaluation (Section IV).

* :mod:`repro.core.query` — query model and fixed-precision semantics
  ``(delta, epsilon, p)`` of Section II.
* :mod:`repro.core.estimators` — CLT machinery shared by the evaluators.
* :mod:`repro.core.independent` — classical independent sampling (IV-B1).
* :mod:`repro.core.repeated` — repeated sampling with regression estimation
  and optimal partial replacement (IV-B2).
* :mod:`repro.core.extrapolation` — Taylor-polynomial prediction of the
  next update time (IV-A).
* :mod:`repro.core.scheduler` — continual-querying schedulers: ``ALL`` and
  ``PRED-k``.
* :mod:`repro.core.result` — the running result ``X_hat[t]`` with hold
  semantics.
* :mod:`repro.core.session` — :class:`~repro.core.session.DigestSession`,
  many queries sharing one sampling substrate (pool + coalesced walks).
* :mod:`repro.core.engine` — :class:`~repro.core.engine.DigestEngine`, the
  two tiers composed into the full system (single-query facade over a
  session).
"""

from repro.core.engine import DigestEngine, EngineConfig
from repro.core.estimators import (
    confidence_quantile,
    ratio_estimate,
    required_sample_size,
    sample_mean_and_variance,
)
from repro.core.extrapolation import TaylorExtrapolator
from repro.core.forward import RevisedEstimate, revise_previous
from repro.core.independent import IndependentEvaluator
from repro.core.query import ContinuousQuery, Precision, Query, parse_query
from repro.core.repeated import RepeatedEvaluator, optimal_partition
from repro.core.result import NotificationFilter, RunningResult, UpdateRecord
from repro.core.scheduler import (
    ContinuousScheduler,
    ExtrapolationScheduler,
    WalkBatchPlan,
    WalkDemand,
    coalesce_demands,
)
from repro.core.session import DigestSession, QueryRuntime, QuerySet, QuerySpec
from repro.core.threshold import ThresholdEvent, ThresholdMonitor, ThresholdState

__all__ = [
    "ContinuousQuery",
    "ContinuousScheduler",
    "DigestEngine",
    "DigestSession",
    "EngineConfig",
    "ExtrapolationScheduler",
    "IndependentEvaluator",
    "NotificationFilter",
    "Precision",
    "Query",
    "QueryRuntime",
    "QuerySet",
    "QuerySpec",
    "RepeatedEvaluator",
    "RevisedEstimate",
    "RunningResult",
    "TaylorExtrapolator",
    "ThresholdEvent",
    "ThresholdMonitor",
    "ThresholdState",
    "UpdateRecord",
    "WalkBatchPlan",
    "WalkDemand",
    "coalesce_demands",
    "confidence_quantile",
    "optimal_partition",
    "parse_query",
    "ratio_estimate",
    "required_sample_size",
    "revise_previous",
    "sample_mean_and_variance",
]
