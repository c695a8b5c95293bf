"""Tests for the shared buffer manager with dynamic thresholds."""

import pytest

from repro.errors import SimulationError
from repro.switch.buffer import SharedBuffer


class TestSharedBuffer:
    def test_admission_and_release(self):
        buf = SharedBuffer(capacity_bytes=10_000, alpha=1.0)
        assert buf.admit(0, 4000)
        assert buf.occupied_bytes == 4000
        buf.release(0, 4000)
        assert buf.occupied_bytes == 0

    def test_dynamic_threshold_blocks_hog(self):
        # alpha=1: a queue may hold at most the free space; as it grows
        # its own limit shrinks.
        buf = SharedBuffer(capacity_bytes=10_000, alpha=1.0)
        admitted = 0
        while buf.admit(0, 1000):
            admitted += 1
        # queue_bytes < alpha * free  =>  q < (10k - q)  =>  q < 5k.
        assert admitted == 5
        assert buf.stats.dropped == 1

    def test_second_queue_still_admitted(self):
        buf = SharedBuffer(capacity_bytes=10_000, alpha=1.0)
        while buf.admit(0, 1000):
            pass
        # The hog is capped, but a fresh queue gets space.
        assert buf.admit(1, 1000)

    def test_small_alpha_reserves_headroom(self):
        strict = SharedBuffer(capacity_bytes=10_000, alpha=0.25)
        admitted = 0
        while strict.admit(0, 500):
            admitted += 1
        assert admitted * 500 < 2500  # well under half the buffer

    def test_hard_capacity(self):
        buf = SharedBuffer(capacity_bytes=1000, alpha=100.0)
        assert buf.admit(0, 900)
        assert not buf.admit(1, 200)  # no free bytes left

    def test_release_validation(self):
        buf = SharedBuffer(capacity_bytes=1000)
        with pytest.raises(SimulationError):
            buf.release(0, 10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SharedBuffer(capacity_bytes=0)
        with pytest.raises(ValueError):
            SharedBuffer(alpha=0)
        buf = SharedBuffer()
        with pytest.raises(ValueError):
            buf.admit(0, 0)

    def test_peak_tracking(self):
        buf = SharedBuffer(capacity_bytes=10_000)
        buf.admit(0, 3000)
        buf.admit(1, 1000)
        buf.release(0, 3000)
        assert buf.stats.peak_occupancy_bytes == 4000
