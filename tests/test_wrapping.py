"""Tests for wrap-safe time windows (finite-width hardware clocks)."""

import pytest

from repro.core.config import PrintQueueConfig
from repro.core.filtering import filter_windows
from repro.core.windowset import TimeWindowSet
from repro.core.wrapping import WrappedTimeWindowSet, unwrap
from repro.errors import ConfigError
from repro.switch.packet import FlowKey

FLOWS = [
    FlowKey.from_strings("10.0.0.%d" % (i + 1), "10.1.0.1", 5000 + i, 80)
    for i in range(8)
]


class TestUnwrap:
    def test_no_wrap_needed(self):
        assert unwrap(5, 4, 21) == 21  # 21 = 0b10101, low 4 bits = 5

    def test_wraps_backwards(self):
        # reference 16 (0b10000), wrapped low-4 = 9 -> candidate 25 > 16,
        # so step one wrap period back: 9.
        assert unwrap(9, 4, 16) == 9

    def test_exact_reference(self):
        assert unwrap(0, 4, 16) == 16

    def test_before_time_zero(self):
        assert unwrap(9, 4, 3) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            unwrap(16, 4, 100)  # wrapped exceeds width
        with pytest.raises(ValueError):
            unwrap(1, 0, 100)
        with pytest.raises(ValueError):
            unwrap(1, 4, -1)


def tiny_config(**kw):
    defaults = dict(m0=0, k=2, alpha=1, T=3)
    defaults.update(kw)
    return PrintQueueConfig(**defaults)


class TestConstruction:
    def test_too_narrow_clock_rejected(self):
        with pytest.raises(ConfigError):
            WrappedTimeWindowSet(tiny_config(k=10, m0=6), timestamp_bits=16)

    def test_set_period_must_fit_wrap(self):
        # 2^16 ns wrap with a multi-ms set period is ambiguous.
        config = PrintQueueConfig(m0=6, k=12, alpha=2, T=4)
        with pytest.raises(ConfigError):
            WrappedTimeWindowSet(config, timestamp_bits=20)


class TestEquivalenceBelowWrap:
    def test_matches_unwrapped_set(self):
        """Before any wrap occurs, the wrapped structure behaves exactly
        like the reference TimeWindowSet."""
        config = tiny_config(k=3, T=3)
        plain = TimeWindowSet(config)
        wrapped = WrappedTimeWindowSet(config, timestamp_bits=16)
        import random

        rng = random.Random(3)
        t = 0
        for i in range(300):
            t += rng.randrange(0, 4)
            plain.update(FLOWS[i % 8], t)
            wrapped.update(FLOWS[i % 8], t)
        assert plain.passes == wrapped.passes
        assert plain.drops == wrapped.drops
        for w_plain, w_wrapped in zip(plain.windows, wrapped.windows):
            assert [r.flow for r in w_plain.records()] == [
                r.flow for r in w_wrapped.records()
            ]
            assert w_plain.flow_idx.tolist() == w_wrapped.flow_idx.tolist()


class TestAcrossTheWrap:
    def test_passing_rule_survives_wrap(self):
        """A cycle boundary that crosses the clock wrap still passes:
        (0 - max_cycle) mod 2^bits == 1."""
        config = tiny_config(k=2, T=2, m0=0)
        bits = 8  # wraps at 256 ns; cycle bits in window 0 = 6
        ws = WrappedTimeWindowSet(config, timestamp_bits=bits)
        ws.update(FLOWS[0], 252)  # wrapped tts 252: cycle 63, index 0
        ws.update(FLOWS[1], 256)  # wrapped ts 0: cycle 0, index 0
        # (0 - 63) mod 64 == 1 -> FLOWS[0] is passed, not dropped.
        assert ws.passes == 1
        assert ws.windows[1].occupancy() == 1

    def test_unwrapped_snapshot_filters_cleanly(self):
        """Driving the structure across several wraps and unwrapping at
        poll time yields windows the standard filter accepts, with the
        newest data retained."""
        config = tiny_config(k=3, T=3, m0=0)
        bits = 10  # wraps every 1024 ns; set period = 8+16+32 << 1024
        ws = WrappedTimeWindowSet(config, timestamp_bits=bits)
        t = 0
        for i in range(3000):  # crosses the wrap ~3 times
            ws.update(FLOWS[i % 8], t)
            t += 1
        poll = t - 1
        absolute = ws.to_absolute(poll)
        filtered = filter_windows(absolute, config)
        # The newest cell unwraps to the actual last timestamp's TTS.
        assert filtered[0].reference_tts == poll
        assert len(filtered[0].cells) > 0
        for fw in filtered:
            for tts, _flow in fw.cells:
                assert (tts << fw.shift) <= poll

    def test_to_absolute_drops_pre_epoch_cells(self):
        config = tiny_config(k=2, T=1, m0=0)
        ws = WrappedTimeWindowSet(config, timestamp_bits=8)
        ws.update(FLOWS[0], 200)
        # Poll very early: a cell whose only consistent unwrapping
        # precedes time zero is discarded.
        absolute = ws.to_absolute(10)
        assert absolute[0].occupancy() == 0

    def test_to_absolute_validation(self):
        ws = WrappedTimeWindowSet(tiny_config(), timestamp_bits=12)
        with pytest.raises(ValueError):
            ws.to_absolute(-5)
