"""Measurement helpers: statistics and overhead computation."""

from __future__ import annotations

import statistics
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (empty input is an error, as it should be)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return statistics.fmean(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation; 0.0 for fewer than two values."""
    return statistics.stdev(values) if len(values) >= 2 else 0.0


def overhead_percent(baseline: float, modified: float) -> float:
    """Relative overhead of *modified* vs *baseline*, in percent.

    This is the paper's Table I metric: (Overhaul - Baseline) / Baseline.
    """
    if baseline <= 0:
        raise ValueError(f"baseline duration must be positive, got {baseline}")
    return (modified - baseline) / baseline * 100.0
