"""The percentile picker: a tail is reported only when the sample supports it.

Pure arithmetic on lists of floats, so ``selftest.py`` can check it on
synthetic data without running a workload.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics §1); fewer and the "tail" is two or three
#: scheduler hiccups, not a distribution.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile; refuses a tail the sample cannot support."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be inside (0, 1), got {q}")
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = _rank(n, q)
    if q > 0.5 and n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it, "
            f"needs {MIN_SAMPLES_BEYOND}"
        )
    return float(sorted(samples)[rank - 1])


def supported_percentile(samples: Sequence[float], q: float) -> Tuple[float, float]:
    """``(value, q_used)``: the ``q`` percentile, or the highest one below it
    (never below the median) that :func:`percentile` does not refuse."""
    n = len(samples)
    if n and n - _rank(n, q) < MIN_SAMPLES_BEYOND:
        q = max(0.5, (n - MIN_SAMPLES_BEYOND) / n)
    return percentile(samples, q), q
