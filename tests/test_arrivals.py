"""Tests for the arrival-process models."""

import numpy as np
import pytest

from repro.traffic.arrivals import PoissonArrivals
from repro.units import GBPS, NS_PER_SEC


def sizes(n, b=1500):
    return np.full(n, b, dtype=np.int64)


class TestPoisson:
    def test_mean_rate_matches(self):
        proc = PoissonArrivals(1 * GBPS)
        rng = np.random.default_rng(2)
        gaps = proc.gaps_ns(rng, sizes(20_000))
        rate = sizes(1)[0] * 8 * len(gaps) / (gaps.sum() / NS_PER_SEC)
        assert rate == pytest.approx(1 * GBPS, rel=0.05)

    def test_first_gap_zero(self):
        proc = PoissonArrivals(GBPS)
        assert proc.gaps_ns(np.random.default_rng(3), sizes(3))[0] == 0

    def test_empty(self):
        proc = PoissonArrivals(GBPS)
        assert len(proc.gaps_ns(np.random.default_rng(4), sizes(0))) == 0

