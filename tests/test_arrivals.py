"""Tests for the arrival-process models."""

import numpy as np
import pytest

from repro.traffic.arrivals import OnOffArrivals, PoissonArrivals
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


class TestOnOff:
    def test_mean_rate_property(self):
        proc = OnOffArrivals(4 * GBPS, mean_on_ns=10_000, mean_off_ns=30_000)
        assert proc.mean_rate_bps == pytest.approx(1 * GBPS)

    def test_long_run_rate_near_mean(self):
        proc = OnOffArrivals(
            4 * GBPS, mean_on_ns=50_000, mean_off_ns=150_000, pareto_shape=None
        )
        rng = np.random.default_rng(5)
        gaps = proc.gaps_ns(rng, sizes(30_000))
        rate = 1500 * 8 * len(gaps) / (gaps.sum() / NS_PER_SEC)
        assert rate == pytest.approx(proc.mean_rate_bps, rel=0.2)

    def test_burstier_than_poisson(self):
        """On/off gaps have a far heavier tail than Poisson at the same
        mean rate: the 99.9th-percentile gap is many times the median."""
        onoff = OnOffArrivals(10 * GBPS, mean_on_ns=20_000, mean_off_ns=60_000)
        rng = np.random.default_rng(6)
        gaps = onoff.gaps_ns(rng, sizes(20_000)).astype(float)[1:]
        ratio_onoff = np.percentile(gaps, 99.9) / max(np.median(gaps), 1)
        poisson = PoissonArrivals(2.5 * GBPS)
        pgaps = poisson.gaps_ns(np.random.default_rng(6), sizes(20_000)).astype(
            float
        )[1:]
        ratio_poisson = np.percentile(pgaps, 99.9) / max(np.median(pgaps), 1)
        assert ratio_onoff > 3 * ratio_poisson

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffArrivals(0)
        with pytest.raises(ValueError):
            OnOffArrivals(GBPS, mean_on_ns=0)
        with pytest.raises(ValueError):
            OnOffArrivals(GBPS, pareto_shape=1.0)

    def test_integrates_with_generator(self):
        from repro.traffic.distributions import WebSearchDistribution
        from repro.traffic.generator import PoissonWorkload, WorkloadConfig

        cfg = WorkloadConfig(
            load=1.0,
            duration_ns=5_000_000,
            arrival_process=OnOffArrivals(4 * GBPS),
        )
        trace = PoissonWorkload(WebSearchDistribution(), cfg, seed=7).generate()
        assert len(trace) > 100
        assert np.all(np.diff(trace.arrival_ns) >= 0)
