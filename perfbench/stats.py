"""Medians, quartile spreads and the regression verdict.

These are the rules a result is judged by: a run reports medians over
its passes; a set of runs is steady when the distance between the first
and third quartiles of a metric, as a share of its median, stays within
the metric's bound; and a change is a regression on a metric when its
median is worse than the baseline median by more than the bound.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``
    gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``baseline``, as a share of
    the baseline (negative when it is better)."""
    if better == "lower":
        return candidate / baseline - 1.0
    if better == "higher":
        return 1.0 - candidate / baseline
    raise ValueError(f"better must be 'lower' or 'higher' (got {better!r})")


def regressions(
    baseline: Dict[str, List[float]],
    candidate: Dict[str, List[float]],
    metrics: Sequence[Dict[str, object]],
) -> Dict[str, float]:
    """Metrics whose candidate median is worse than the baseline median
    by more than their bound, mapped to how much worse they are.

    ``baseline`` and ``candidate`` map a metric name to the values of
    several runs; ``metrics`` are ``end_to_end`` entries of
    BENCHMARK.json."""
    flagged: Dict[str, float] = {}
    for metric in metrics:
        name = str(metric["name"])
        change = worse_by(
            median(baseline[name]), median(candidate[name]), str(metric["better"])
        )
        if change > float(metric["bound"]):  # type: ignore[arg-type]
            flagged[name] = change
    return flagged
