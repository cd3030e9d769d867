"""Order statistics shared by the benchmark runner and the comparison tool."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single sample is its own quartiles, so a one-run side still
    compares (with zero spread).
    """
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values: Sequence[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))
