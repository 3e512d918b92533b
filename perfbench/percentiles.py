"""Order statistics and metric-name rules shared by the benchmark scripts."""

from __future__ import annotations

import math
import re
import statistics

# Percentiles a report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is quoted only when at least this many samples lie beyond it.
MIN_TAIL = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _rank(n: int, p: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile of ``n``."""
    return n - _rank(n, p)


def reportable_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least MIN_TAIL samples beyond it."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_TAIL:
            best = p
    return best


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None
