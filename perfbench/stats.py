"""Order statistics for the report: medians, quartiles, tail percentiles."""

from __future__ import annotations

import math
import statistics

def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def tail_percentile(n_samples: int) -> float:
    """Highest percentile with at least ``TAIL_BEYOND`` of n samples beyond it."""
    if n_samples <= TAIL_BEYOND:
        raise ValueError(
            f"need more than {TAIL_BEYOND} samples for a tail, got {n_samples}"
        )
    return math.floor(1000.0 * (n_samples - TAIL_BEYOND) / n_samples) / 10.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def spread(values: list[float]) -> dict[str, float]:
    """min, quartiles, median and max of a metric's values across repeats."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(values),
        "n": len(values),
    }
