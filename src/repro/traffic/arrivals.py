"""Arrival-process models beyond plain Poisson.

The paper's traces use Poisson flow/packet arrivals, but congestion
regimes in production networks are shaped by *burstiness* — the on/off
behaviour that produces the microbursts of reference [35].  This module
provides pluggable inter-arrival generators:

* :class:`PoissonArrivals` — exponential gaps (the default),
* :class:`OnOffArrivals` — a two-state Markov-modulated process: ON
  periods emit packets back-to-back-ish at a high rate, OFF periods are
  silent; heavy-tailed (Pareto) period lengths yield self-similar-ish
  aggregates,

All generators are deterministic for a given numpy Generator and produce
integer-nanosecond gap arrays for a vector of packet sizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.units import NS_PER_SEC


class ArrivalProcess:
    """Produces inter-packet gaps (ns) for a train of packet sizes."""

    def gaps_ns(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Exponential gaps with mean = serialization time at ``rate``."""

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError(f"non-positive rate: {rate_bps}")
        self.rate_bps = rate_bps

    def gaps_ns(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        mean_gap = sizes * 8 * (NS_PER_SEC / self.rate_bps)
        gaps = rng.exponential(1.0, len(sizes)) * mean_gap
        out = gaps.astype(np.int64)
        if len(out):
            out[0] = 0
        return out


class OnOffArrivals(ArrivalProcess):
    """Markov-modulated on/off bursts with Pareto-distributed periods.

    During ON, packets are paced at ``burst_rate_bps``; OFF inserts a
    silent gap.  Mean throughput is
    ``burst_rate * mean_on / (mean_on + mean_off)``.

    Parameters
    ----------
    burst_rate_bps:
        Pacing rate inside a burst.
    mean_on_ns / mean_off_ns:
        Mean period lengths.
    pareto_shape:
        Tail index of the period-length distribution; values in (1, 2]
        give long-range-dependent aggregates.  ``None`` uses exponential
        periods (classic MMPP).
    """

    def __init__(
        self,
        burst_rate_bps: float,
        mean_on_ns: float = 20_000,
        mean_off_ns: float = 60_000,
        pareto_shape: Optional[float] = 1.5,
    ) -> None:
        if burst_rate_bps <= 0:
            raise ValueError(f"non-positive burst rate: {burst_rate_bps}")
        if mean_on_ns <= 0 or mean_off_ns <= 0:
            raise ValueError("period means must be positive")
        if pareto_shape is not None and pareto_shape <= 1.0:
            raise ValueError(f"pareto shape must exceed 1, got {pareto_shape}")
        self.burst_rate_bps = burst_rate_bps
        self.mean_on_ns = mean_on_ns
        self.mean_off_ns = mean_off_ns
        self.pareto_shape = pareto_shape

    @property
    def mean_rate_bps(self) -> float:
        duty = self.mean_on_ns / (self.mean_on_ns + self.mean_off_ns)
        return self.burst_rate_bps * duty

    def _period(self, rng: np.random.Generator, mean_ns: float) -> float:
        if self.pareto_shape is None:
            return rng.exponential(mean_ns)
        # Pareto with mean = xm * a / (a - 1)  =>  xm = mean * (a-1)/a.
        a = self.pareto_shape
        xm = mean_ns * (a - 1) / a
        return xm * (1.0 + rng.pareto(a))

    def gaps_ns(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        n = len(sizes)
        gaps = np.zeros(n, dtype=np.int64)
        if n == 0:
            return gaps
        on_left = self._period(rng, self.mean_on_ns)
        for i in range(1, n):
            gap = sizes[i] * 8 * NS_PER_SEC / self.burst_rate_bps
            on_left -= gap
            while on_left <= 0:
                # Burst exhausted: insert an OFF gap, start a new burst.
                gap += self._period(rng, self.mean_off_ns)
                on_left += self._period(rng, self.mean_on_ns)
            gaps[i] = int(gap)
        return gaps
