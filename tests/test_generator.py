"""Tests for the Poisson workload generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import generator
from repro.traffic.distributions import (
    UWLikeDistribution,
    WebSearchDistribution,
    distribution_by_name,
)
from repro.traffic.generator import PoissonWorkload, WorkloadConfig, sort_arrivals
from repro.units import GBPS


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(load=0)
        with pytest.raises(ValueError):
            WorkloadConfig(duration_ns=0)
        with pytest.raises(ValueError):
            WorkloadConfig(flow_pacing_rate_bps=0)


class TestGeneration:
    def test_load_targeting(self):
        """The in-window offered load lands near the requested target
        despite the heavy-tailed flow sizes."""
        for name, dist in [("ws", WebSearchDistribution()), ("uw", UWLikeDistribution())]:
            cfg = WorkloadConfig(load=1.2, duration_ns=20_000_000)
            trace = PoissonWorkload(dist, cfg, seed=11).generate()
            offered = trace.offered_load_bps()
            assert 1.1 * 10 * GBPS <= offered <= 1.6 * 10 * GBPS, name

    def test_deterministic_per_seed(self):
        dist = WebSearchDistribution()
        cfg = WorkloadConfig(load=0.8, duration_ns=5_000_000)
        a = PoissonWorkload(dist, cfg, seed=5).generate()
        b = PoissonWorkload(dist, cfg, seed=5).generate()
        assert np.array_equal(a.arrival_ns, b.arrival_ns)
        assert np.array_equal(a.size_bytes, b.size_bytes)
        assert a.flows == b.flows

    def test_different_seeds_differ(self):
        dist = WebSearchDistribution()
        cfg = WorkloadConfig(load=0.8, duration_ns=5_000_000)
        a = PoissonWorkload(dist, cfg, seed=5).generate()
        b = PoissonWorkload(dist, cfg, seed=6).generate()
        assert not (
            len(a) == len(b) and np.array_equal(a.arrival_ns, b.arrival_ns)
        )

    def test_sorted_arrivals(self):
        trace = PoissonWorkload(
            UWLikeDistribution(), WorkloadConfig(load=1.0, duration_ns=2_000_000), 7
        ).generate()
        assert np.all(np.diff(trace.arrival_ns) >= 0)

    def test_arrivals_within_window(self):
        cfg = WorkloadConfig(load=1.0, duration_ns=3_000_000)
        trace = PoissonWorkload(WebSearchDistribution(), cfg, 8).generate()
        assert trace.arrival_ns.min() >= 0
        assert trace.arrival_ns.max() < cfg.duration_ns + cfg.jitter_ns + 1

    def test_flow_indices_consistent(self):
        trace = PoissonWorkload(
            WebSearchDistribution(), WorkloadConfig(load=0.9, duration_ns=3_000_000), 9
        ).generate()
        assert trace.flow_index.min() >= 0
        assert trace.flow_index.max() < trace.num_flows
        # Every flow in the table contributed at least one packet.
        assert len(np.unique(trace.flow_index)) == trace.num_flows

    def test_flow_keys_unique(self):
        trace = PoissonWorkload(
            UWLikeDistribution(), WorkloadConfig(load=1.0, duration_ns=2_000_000), 10
        ).generate()
        assert len(set(trace.flows)) == len(trace.flows)

    def test_pacing_spreads_flows(self):
        """A flow's packets are spread roughly across flow_bytes/pacing."""
        dist = WebSearchDistribution()
        cfg = WorkloadConfig(
            load=0.5, duration_ns=20_000_000, flow_pacing_rate_bps=1 * GBPS
        )
        trace = PoissonWorkload(dist, cfg, seed=12).generate()
        # Pick the flow with the most packets and check its span.
        counts = np.bincount(trace.flow_index)
        big = int(np.argmax(counts))
        mask = trace.flow_index == big
        span = trace.arrival_ns[mask].max() - trace.arrival_ns[mask].min()
        sent_bytes = trace.size_bytes[mask].sum()
        implied_rate = sent_bytes * 8 / (span / 1e9)
        assert implied_rate == pytest.approx(1 * GBPS, rel=0.5)


def _trace_digest(trace):
    digest = hashlib.sha256()
    for column in (trace.arrival_ns, trace.size_bytes, trace.flow_index):
        digest.update(str(column.dtype).encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(repr([flow.sort_key() for flow in trace.flows]).encode())
    return digest.hexdigest()


class TestGoldenTrace:
    """The traces the end-to-end ledger verifies for its default seed 1
    (generator seed 1000, its trace 0), pinned column for column: every
    count and answer downstream of the generator starts from these bits."""

    @pytest.mark.parametrize(
        "dist, load, duration_ns, packets, sha256",
        [
            (
                "uw", 1.2, 60_000_000, 693_801,
                "d056b084e00bfee7c3d61e5c7200146f8e844ede15b2fedaaa3e498593517bb2",
            ),
            (
                "ws", 1.3, 400_000_000, 436_219,
                "5ddf368edffae613052173aa7deecc635fbeb394b3ac843aacde040127cd00ad",
            ),
        ],
    )
    def test_trace_bytes_pinned(self, dist, load, duration_ns, packets, sha256):
        trace = PoissonWorkload(
            distribution_by_name(dist),
            WorkloadConfig(load=load, duration_ns=duration_ns),
            seed=1000,
        ).generate()
        assert len(trace) == packets
        assert _trace_digest(trace) == sha256


class TestSortArrivals:
    """``sort_arrivals`` is ``np.argsort(kind="stable")`` plus the gather."""

    @staticmethod
    def _check(arrival):
        expected = np.argsort(arrival, kind="stable")
        column = arrival.copy()
        order = sort_arrivals(column)
        assert np.array_equal(order, expected)
        assert np.array_equal(column, arrival[expected])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 7), max_size=300),
        st.sampled_from([0, 1 << 20, (1 << 40) - 8, -(1 << 30)]),
    )
    def test_heavy_ties_match_stable_argsort(self, values, offset):
        # Eight distinct values: long runs of equal arrivals, whose packet
        # order (flow order) the sort must keep.
        self._check(np.array(values, dtype=np.int64) + offset)

    def test_packing_limit_both_sides(self):
        # 1000 packets take 10 position bits: arrivals must stay inside
        # +-2**53.  Either side of the limit sorts the same.
        rng = np.random.default_rng(3)
        base = rng.integers(0, 4, 1000).astype(np.int64)
        for top in ((1 << 53) - 4, 1 << 53, 1 << 62, -(1 << 53), -(1 << 53) - 4):
            arrival = base.copy()
            arrival[::7] = top
            self._check(arrival)

    def test_long_sparse_trace_falls_back_to_argsort(self, monkeypatch):
        """A 2**50 ns trace at a tiny load: its packed keys would wrap int64
        (and reorder packets); the observed range selects the argsort."""
        seen = []

        def spy(arrival):
            raw = arrival.copy()
            order = sort_arrivals(arrival)
            seen.append((raw, order, arrival.copy()))
            return order

        monkeypatch.setattr(generator, "sort_arrivals", spy)
        cfg = WorkloadConfig(load=1e-9, duration_ns=1 << 50)
        trace = PoissonWorkload(UWLikeDistribution(), cfg, seed=4).generate()
        (raw, order, column), = seen
        bits = (len(raw) - 1).bit_length()
        assert int(raw.max()) >= 1 << (63 - bits)  # the packed key would wrap
        wrapped = np.argsort((raw << bits) | np.arange(len(raw)), kind="stable")
        expected = np.argsort(raw, kind="stable")
        assert not np.array_equal(wrapped, expected)
        assert np.array_equal(order, expected)
        assert np.array_equal(trace.arrival_ns, raw[expected])
        assert np.array_equal(column, trace.arrival_ns)
        assert len(np.unique(trace.flow_index)) == trace.num_flows
