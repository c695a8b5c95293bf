"""Flow-size distributions used by the paper's workloads.

Two of the paper's traces are synthesized from published flow-size CDFs:

* **Web search** (``WS``) — the DCTCP production cluster distribution
  (Alizadeh et al., SIGCOMM 2010).
* **Data mining** (``DM``) — the VL2 cluster distribution (Greenberg et
  al., SIGCOMM 2009).

The third trace is the University of Wisconsin data-center capture
(Benson et al., IMC 2010), which we cannot redistribute; per the
substitution rule, :class:`UWLikeDistribution` matches the properties the
paper's evaluation actually leans on (Section 7.1): ~100-byte packets,
~9.1 Mpps at 10 Gbps, and an extreme long tail where the 100th-largest
flow carries under 1 % of the largest flow's packets.

All distributions are expressed as empirical CDFs over flow size in bytes
with log-linear interpolation between knots, a standard way such published
CDFs are consumed by simulators.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class FlowSizeDistribution:
    """Base class: sample flow sizes (bytes) and packet sizes (bytes)."""

    #: Typical on-wire packet size for this workload, used for line-rate math.
    typical_packet_bytes: int = 1500

    def sample_flow_bytes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def sample_packet_bytes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Per-packet sizes; default = all typical-sized."""
        return np.full(n, self.typical_packet_bytes, dtype=np.int64)


class EmpiricalCdfDistribution(FlowSizeDistribution):
    """A flow-size distribution given as CDF knots ``(bytes, probability)``.

    Sampling inverts the CDF with log-space interpolation between knots,
    which is the conventional treatment of the heavy-tailed published CDFs.
    """

    def __init__(
        self,
        knots: Sequence[Tuple[float, float]],
        typical_packet_bytes: int = 1500,
        name: str = "empirical",
    ) -> None:
        if len(knots) < 2:
            raise ValueError("need at least two CDF knots")
        sizes = [k[0] for k in knots]
        probs = [k[1] for k in knots]
        if sorted(sizes) != sizes or sorted(probs) != probs:
            raise ValueError("CDF knots must be non-decreasing")
        if probs[-1] != 1.0:
            raise ValueError("CDF must end at probability 1.0")
        if min(sizes) <= 0:
            raise ValueError("flow sizes must be positive")
        self._log_sizes = np.log(np.asarray(sizes, dtype=float))
        self._probs = np.asarray(probs, dtype=float)
        self.typical_packet_bytes = typical_packet_bytes
        self.name = name

    def sample_flow_bytes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        log_size = np.interp(u, self._probs, self._log_sizes)
        return np.maximum(1, np.exp(log_size)).astype(np.int64)

    def __repr__(self) -> str:
        return f"EmpiricalCdfDistribution({self.name!r})"


class WebSearchDistribution(EmpiricalCdfDistribution):
    """DCTCP web-search flow sizes; near-MTU packets (paper: ~1500 B)."""

    # Knots follow the widely used web-search CDF: ~50% of flows under
    # ~100 KB but most bytes in multi-MB flows.
    _KNOTS: List[Tuple[float, float]] = [
        (6_000, 0.00),
        (10_000, 0.15),
        (13_000, 0.20),
        (19_000, 0.30),
        (33_000, 0.40),
        (53_000, 0.53),
        (133_000, 0.60),
        (667_000, 0.70),
        (1_333_000, 0.80),
        (3_333_000, 0.90),
        (6_667_000, 0.97),
        (20_000_000, 1.00),
    ]

    def __init__(self) -> None:
        super().__init__(self._KNOTS, typical_packet_bytes=1500, name="websearch")


class DataMiningDistribution(EmpiricalCdfDistribution):
    """VL2 data-mining flow sizes; near-MTU packets, very heavy tail."""

    _KNOTS: List[Tuple[float, float]] = [
        (100, 0.00),
        (180, 0.10),
        (250, 0.20),
        (560, 0.30),
        (900, 0.40),
        (1_100, 0.50),
        (1_870, 0.60),
        (3_160, 0.70),
        (10_000, 0.80),
        (400_000, 0.90),
        (3_160_000, 0.95),
        (100_000_000, 0.98),
        (1_000_000_000, 1.00),
    ]

    def __init__(self) -> None:
        super().__init__(self._KNOTS, typical_packet_bytes=1460, name="datamining")

    def sample_packet_bytes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # The VL2 trace mixes small control packets with full-MTU data;
        # the paper characterizes DM as near-MTU, so bias heavily to MTU.
        sizes = np.where(rng.random(n) < 0.05, 64, self.typical_packet_bytes)
        return sizes.astype(np.int64)


class UWLikeDistribution(EmpiricalCdfDistribution):
    """Synthetic stand-in for the UW data-center trace.

    Matched properties (Section 7.1 of the paper):

    * packets around 100 bytes → ~9.1 Mpps at 10 Gbps line rate,
    * extreme long tail: the 100th-largest flow has < 1 % of the packets
      of the largest flow (validated by a unit test),
    * flow population in the thousands per window period.
    """

    _KNOTS: List[Tuple[float, float]] = [
        (100, 0.00),
        (200, 0.45),
        (400, 0.65),
        (1_000, 0.78),
        (5_000, 0.88),
        (30_000, 0.94),
        (300_000, 0.975),
        (5_000_000, 0.995),
        (30_000_000, 0.999),
        (2_000_000_000, 1.00),
    ]

    def __init__(self) -> None:
        super().__init__(self._KNOTS, typical_packet_bytes=100, name="uw-like")

    def sample_packet_bytes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Small packets with modest variation around 100 B (64..196 B).
        sizes = 64 + rng.integers(0, 133, n)
        return sizes.astype(np.int64)


def distribution_by_name(name: str) -> FlowSizeDistribution:
    """Look up one of the paper's three workloads: 'ws', 'dm', or 'uw'."""
    table = {
        "ws": WebSearchDistribution,
        "websearch": WebSearchDistribution,
        "dm": DataMiningDistribution,
        "datamining": DataMiningDistribution,
        "uw": UWLikeDistribution,
        "uw-like": UWLikeDistribution,
    }
    key = name.lower()
    if key not in table:
        raise KeyError(f"unknown workload {name!r}; expected ws/dm/uw")
    return table[key]()
