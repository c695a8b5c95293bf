"""Terminal renderers for the paper's figure shapes.

Pure-text plotting: a time-series renderer for the Figure-16a
queue-depth timeline (``repro run --plot``).  Kept dependency-free so it
runs anywhere.
"""

from __future__ import annotations

from typing import List, Sequence


def timeline(
    times: Sequence[int],
    values: Sequence[int],
    buckets: int = 60,
    height: int = 12,
    unit_divisor: float = 1e6,
    unit_label: str = "ms",
) -> str:
    """Render max-per-bucket values of a time series as an ASCII area plot."""
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    if not times:
        return "(no data)"
    if buckets < 1 or height < 1:
        raise ValueError("buckets and height must be positive")
    t0, t1 = times[0], times[-1]
    span = max(1, t1 - t0)
    maxima = [0] * buckets
    for t, v in zip(times, values):
        bucket = min(buckets - 1, (t - t0) * buckets // span)
        if v > maxima[bucket]:
            maxima[bucket] = v
    peak = max(max(maxima), 1)
    rows: List[str] = []
    for level in range(height, 0, -1):
        threshold = peak * level / height
        rows.append(
            f"{threshold:>8.0f} |"
            + "".join("#" if m >= threshold else " " for m in maxima)
        )
    rows.append(" " * 9 + "+" + "-" * buckets)
    left = f"{t0 / unit_divisor:.1f} {unit_label}"
    right = f"{t1 / unit_divisor:.1f} {unit_label}"
    rows.append(" " * 10 + left + " " * max(1, buckets - len(left) - len(right)) + right)
    return "\n".join(rows)
