"""Arrival-process models: the pluggable inter-packet gap generator.

The paper's traces use Poisson flow/packet arrivals:
:class:`PoissonArrivals` draws exponential gaps.  A generator is
deterministic for a given numpy Generator and produces an
integer-nanosecond gap array for a vector of packet sizes.
"""

from __future__ import annotations


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
