"""The vectorised FIFO fast path must match the event-driven switch
record-for-record: same dequeue timestamps, same enqueue depths, same
drops.  This equivalence is what lets the benchmark harness use the fast
path while the rest of the library trusts the event-driven semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch import fastpath
from repro.switch.fastpath import fifo_timestamps
from repro.switch.packet import FlowKey, Packet
from repro.switch.port import EgressPort
from repro.switch.queue import EgressQueue
from repro.switch.switchsim import Switch
from repro.units import GBPS

FLOW = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)


def run_event_sim(arrivals, sizes, rate_bps, capacity=None):
    queue = EgressQueue(capacity_units=capacity)
    port = EgressPort(0, rate_bps, queue=queue)
    switch = Switch([port])
    packets = [
        Packet(FLOW, int(s), int(a), seq=i)
        for i, (a, s) in enumerate(zip(arrivals, sizes))
    ]
    switch.run_trace(packets)
    kept = [p for p in packets if not p.dropped]
    return kept, switch.stats.drops


def assert_equivalent(arrivals, sizes, rate_bps, capacity=None):
    arrivals = np.asarray(arrivals, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    result = fifo_timestamps(arrivals, sizes, rate_bps, capacity)
    kept, drops = run_event_sim(arrivals, sizes, rate_bps, capacity)
    assert drops == result.drops
    assert len(kept) == len(result.kept)
    for i, pkt in enumerate(kept):
        assert pkt.enq_timestamp == result.enq_timestamp[i], f"pkt {i} enq"
        assert pkt.deq_timestamp == result.deq_timestamp[i], f"pkt {i} deq"
        assert pkt.enq_qdepth == result.enq_qdepth[i], f"pkt {i} depth"


class TestBasics:
    def test_empty(self):
        result = fifo_timestamps(np.array([]), np.array([]), GBPS)
        assert len(result.kept) == 0
        assert result.drops == 0

    def test_single_packet(self):
        result = fifo_timestamps(np.array([100]), np.array([1500]), 10 * GBPS)
        assert result.deq_timestamp[0] == 100
        assert result.enq_qdepth[0] == 0

    def test_back_to_back(self):
        result = fifo_timestamps(
            np.array([0, 0, 0]), np.array([1500] * 3), 10 * GBPS
        )
        assert list(result.deq_timestamp) == [0, 1200, 2400]
        assert list(result.enq_qdepth) == [0, 1, 2]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            fifo_timestamps(np.array([10, 5]), np.array([100, 100]), GBPS)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fifo_timestamps(np.array([1]), np.array([100, 200]), GBPS)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            fifo_timestamps(np.array([1]), np.array([100]), 0)

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_non_positive_capacity_rejected(self, capacity):
        # Same contract as EgressQueue(capacity_units=...).
        with pytest.raises(ValueError, match="non-positive capacity"):
            fifo_timestamps(np.array([1]), np.array([100]), GBPS, capacity)
        with pytest.raises(ValueError, match="non-positive capacity"):
            EgressQueue(capacity_units=capacity)

    def test_tail_drop(self):
        result = fifo_timestamps(
            np.array([0, 0, 0, 0]), np.array([1500] * 4), 10 * GBPS, capacity_pkts=2
        )
        assert result.drops == 2
        assert list(result.kept) == [0, 1]


class TestEquivalence:
    def test_bursty_mixed_sizes(self):
        rng = np.random.default_rng(1)
        arrivals = np.sort(rng.integers(0, 100_000, 500))
        sizes = rng.integers(64, 1501, 500)
        assert_equivalent(arrivals, sizes, 10 * GBPS)

    def test_overloaded(self):
        rng = np.random.default_rng(2)
        arrivals = np.sort(rng.integers(0, 50_000, 1000))
        sizes = rng.integers(64, 1501, 1000)
        assert_equivalent(arrivals, sizes, 10 * GBPS)

    def test_underloaded_sparse(self):
        arrivals = np.arange(100) * 10_000
        sizes = np.full(100, 64)
        assert_equivalent(arrivals, sizes, 10 * GBPS)

    def test_with_capacity(self):
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.integers(0, 30_000, 800))
        sizes = rng.integers(64, 1501, 800)
        assert_equivalent(arrivals, sizes, 10 * GBPS, capacity=20)

    def test_simultaneous_arrivals(self):
        arrivals = np.zeros(50, dtype=np.int64)
        sizes = np.full(50, 750)
        assert_equivalent(arrivals, sizes, 10 * GBPS)
        assert_equivalent(arrivals, sizes, 10 * GBPS, capacity=7)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(64, 1500)),
            min_size=1,
            max_size=120,
        ),
        rate_gbps=st.sampled_from([1, 10, 40]),
        capacity=st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_property_equivalence(self, data, rate_gbps, capacity):
        gaps = np.array([d[0] for d in data], dtype=np.int64)
        arrivals = np.cumsum(gaps)
        sizes = np.array([d[1] for d in data], dtype=np.int64)
        assert_equivalent(arrivals, sizes, rate_gbps * GBPS, capacity)


def poisson_trace(seed, n, load, rate_bps=10 * GBPS):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(64, 1501, n)
    mean_tx_ns = sizes.mean() * 8e9 / rate_bps
    arrivals = np.cumsum(rng.exponential(mean_tx_ns / load, n).astype(np.int64))
    return arrivals, sizes


class TestBlockBoundaries:
    """Seeded traces deep and long enough to cross many block boundaries.

    The scan takes arrivals in generation blocks while the queue is long
    and in speculative unbounded blocks while it is short; the property
    test above (<= 120 packets, capacity <= 30) never leaves the first
    block at depth.
    """

    @pytest.mark.parametrize(
        "seed, n, load, capacity",
        [(11, 3000, 1.5, 50), (12, 5000, 1.2, 500), (13, 2000, 3.0, 120)],
    )
    def test_saturated_consecutive_blocks(self, seed, n, load, capacity):
        arrivals, sizes = poisson_trace(seed, n, load)
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS, capacity)
        assert result.drops > n // 20  # the buffer stayed full for a while
        assert_equivalent(arrivals, sizes, 10 * GBPS, capacity)

    def test_non_ps_divisible_rate(self):
        arrivals, sizes = poisson_trace(14, 2500, 1.4, rate_bps=7_777_777_777)
        assert_equivalent(arrivals, sizes, 7_777_777_777, capacity=200)

    def test_drains_to_empty_and_refills(self):
        # Five overloaded bursts, each followed by silence long enough to
        # empty the queue: both regimes hand over to the other every time.
        bursts, burst_sizes, start = [], [], 0
        for seed in range(5):
            arrivals, sizes = poisson_trace(20 + seed, 600, 2.0)
            bursts.append(start + arrivals)
            burst_sizes.append(sizes)
            start = int(bursts[-1][-1]) + 400_000
        arrivals, sizes = np.concatenate(bursts), np.concatenate(burst_sizes)
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS, capacity_pkts=100)
        assert result.drops > 0
        assert np.count_nonzero(result.enq_qdepth == 0) >= 5
        assert_equivalent(arrivals, sizes, 10 * GBPS, capacity=100)

    def test_simultaneous_arrivals_across_block_edges(self):
        # Groups of 40 packets sharing a timestamp against a 50-packet
        # buffer: a speculative block's first overflow, and every block
        # edge, falls inside a group.
        rng = np.random.default_rng(30)
        arrivals = np.repeat(np.cumsum(rng.integers(5_000, 40_000, 60)), 40)
        sizes = rng.integers(64, 1501, len(arrivals))
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS, capacity_pkts=50)
        assert 0 < result.drops < len(arrivals) // 2
        assert_equivalent(arrivals, sizes, 10 * GBPS, capacity=50)

    def test_arrival_at_last_pending_dequeue_time(self):
        # 1250 B at 10 Gbps is exactly 1000 ns on the wire, and arrivals
        # sit on the same 1000 ns grid, so arrivals land exactly on the
        # dequeue time of the last queued packet.  Such a packet is still
        # in the queue (strict <) and bounds the generation block.
        rng = np.random.default_rng(31)
        arrivals = np.sort(rng.integers(0, 1500, 2500)) * 1000
        sizes = np.full(len(arrivals), 1250)
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS, capacity_pkts=60)
        on_last = result.enq_timestamp[1:] == result.deq_timestamp[:-1]
        assert on_last.any() and result.drops > 0
        assert np.all(result.enq_qdepth[1:][on_last] >= 1)
        assert_equivalent(arrivals, sizes, 10 * GBPS, capacity=60)

    def test_python_iterations_scale_with_blocks_not_packets(self, monkeypatch):
        n, capacity = 200_000, 2_000
        arrivals, sizes = poisson_trace(32, n, 1.5)
        blocks = 0
        real = fastpath.departures_before

        def counting(block, pending):
            nonlocal blocks
            blocks += 1
            return real(block, pending)

        monkeypatch.setattr(fastpath, "departures_before", counting)
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS, capacity)
        assert result.drops > n // 10
        # One departure count a block, ~capacity * load arrivals a
        # saturated block: a few hundred blocks, where a per-packet loop
        # makes 200 k turns.
        assert 0 < blocks < n // 100

    @settings(max_examples=200, deadline=None)
    @given(
        arrivals=st.lists(st.integers(0, 40), max_size=60),
        pending=st.lists(st.integers(0, 40), max_size=60),
    )
    def test_departure_count_is_a_left_search(self, arrivals, pending):
        # Values in 0..40 force equal-ns ties on both sides and across
        # them; empty lists give an empty block or nothing pending.
        arrivals = np.sort(np.array(arrivals, dtype=np.int64))
        pending = np.sort(np.array(pending, dtype=np.int64))
        got = fastpath.departures_before(arrivals, pending)
        assert np.array_equal(got, np.searchsorted(pending, arrivals, "left"))


class TestConservation:
    def test_fifo_order_preserved(self):
        rng = np.random.default_rng(4)
        arrivals = np.sort(rng.integers(0, 10_000, 300))
        sizes = rng.integers(64, 1501, 300)
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS)
        # Dequeue times strictly ordered; no packet departs before arrival.
        assert np.all(np.diff(result.deq_timestamp) >= 0)
        assert np.all(result.deq_timestamp >= result.enq_timestamp)

    def test_depth_conservation(self):
        # At any dequeue, depth equals arrivals-so-far minus departures.
        rng = np.random.default_rng(5)
        arrivals = np.sort(rng.integers(0, 20_000, 400))
        sizes = rng.integers(64, 1501, 400)
        result = fifo_timestamps(arrivals, sizes, 10 * GBPS)
        for i in range(len(result.kept)):
            t = result.enq_timestamp[i]
            enqueued = i  # i packets before
            departed = int(np.sum(result.deq_timestamp[:i] < t))
            assert result.enq_qdepth[i] == enqueued - departed
