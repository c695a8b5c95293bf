"""Wrap-safe time windows for finite-width hardware clocks.

Tofino exposes a 32-bit nanosecond timestamp (the Figure-5 example works
on exactly those 32 bits), which wraps every ~4.29 seconds.  The
simulator's integer clock never wraps, but a faithful data plane must
compute the mapping and passing rules on the *truncated* timestamp:

* cell index / cycle ID come from the masked TTS,
* the passing-rule comparison ``new_cycle - old_cycle == 1`` becomes a
  comparison modulo the cycle-ID width.

The control plane, which owns a full-width clock, *unwraps* the stored
cycle IDs at read time: a cell's absolute TTS is the largest value not
exceeding the poll instant whose low bits match the stored value —
unambiguous as long as the set period is shorter than the wrap period
(enforced at construction).  :meth:`WrappedTimeWindowSet.to_absolute`
produces standard :class:`~repro.core.timewindow.TimeWindow` objects in
absolute TTS space, so Algorithm 3 and the query machinery apply
unchanged.
"""

from __future__ import annotations

from typing import List

from repro.core.config import PrintQueueConfig
from repro.core.timewindow import EMPTY, TimeWindow
from repro.errors import ConfigError
from repro.switch.packet import FlowKey
from repro.switch.records import FlowTable


def unwrap(wrapped: int, bits: int, reference: int) -> int:
    """Largest value <= ``reference`` whose low ``bits`` equal ``wrapped``.

    Returns a negative number when no non-negative candidate exists
    (callers treat that as "before time zero").
    """
    if bits <= 0:
        raise ValueError(f"non-positive width: {bits}")
    mask = (1 << bits) - 1
    if not 0 <= wrapped <= mask:
        raise ValueError(f"wrapped value {wrapped} exceeds {bits} bits")
    if reference < 0:
        raise ValueError(f"negative reference: {reference}")
    candidate = (reference & ~mask) | wrapped
    if candidate > reference:
        candidate -= 1 << bits
    return candidate


class WrappedTimeWindowSet:
    """Algorithm 1 on a finite-width (wrapping) timestamp.

    Mirrors :class:`~repro.core.windowset.TimeWindowSet` but stores only
    the truncated cycle IDs a real register would hold, and applies the
    passing rule modulo the per-window cycle width.
    """

    __slots__ = ("config", "timestamp_bits", "windows", "updates", "passes", "drops")

    def __init__(self, config: PrintQueueConfig, timestamp_bits: int = 32) -> None:
        if timestamp_bits < config.m0 + config.k + 1:
            raise ConfigError(
                f"{timestamp_bits}-bit timestamps leave no cycle bits for "
                f"m0={config.m0}, k={config.k}"
            )
        if config.set_period_ns >= (1 << timestamp_bits):
            raise ConfigError(
                "set period exceeds the clock wrap period; cycle IDs would "
                "be ambiguous at control-plane read time"
            )
        self.config = config
        self.timestamp_bits = timestamp_bits
        table = FlowTable()
        self.windows: List[TimeWindow] = [
            TimeWindow(config.k, table) for _ in range(config.T)
        ]
        self.updates = 0
        self.passes = 0
        self.drops = 0

    def _tts_bits(self, window: int) -> int:
        """Width of the (wrapped) TTS entering ``window``."""
        return self.timestamp_bits - self.config.shift(window)

    def _cycle_bits(self, window: int) -> int:
        return self._tts_bits(window) - self.config.k

    def update(self, flow: FlowKey, deq_timestamp_ns: int) -> int:
        """Insert one packet, seeing only the truncated timestamp."""
        cfg = self.config
        k = cfg.k
        alpha = cfg.alpha
        self.updates += 1
        wrapped_ts = deq_timestamp_ns & ((1 << self.timestamp_bits) - 1)
        tts = wrapped_ts >> cfg.m0
        fid = self.windows[0].table.intern(flow)
        depth = 0
        for i in range(cfg.T):
            window = self.windows[i]
            index = tts & window.mask
            new_cycle = tts >> k
            old_cycle = window.cycle_ids.item(index)
            old_fid = window.flow_idx.item(index)
            window.cycle_ids[index] = new_cycle
            window.flow_idx[index] = fid
            depth += 1
            cycle_mod = 1 << self._cycle_bits(i)
            if old_cycle != EMPTY and (new_cycle - old_cycle) % cycle_mod == 1:
                fid = old_fid
                # Reconstruct the evicted wrapped TTS; compress by alpha.
                tts = ((old_cycle << k) | index) >> alpha
                self.passes += 1
            else:
                if old_cycle != EMPTY:
                    self.drops += 1
                break
        return depth

    # -- control-plane unwrapping -------------------------------------------

    def to_absolute(self, poll_time_ns: int) -> List[TimeWindow]:
        """Rebuild absolute-TTS windows from the wrapped register state.

        ``poll_time_ns`` is the control plane's full-width clock at the
        (frozen) read.  Cells whose unwrapped time falls before zero are
        left empty.
        """
        if poll_time_ns < 0:
            raise ValueError(f"negative poll time: {poll_time_ns}")
        cfg = self.config
        out: List[TimeWindow] = []
        for i, window in enumerate(self.windows):
            absolute = TimeWindow(cfg.k, window.table)
            tts_bits = self._tts_bits(i)
            reference_tts = poll_time_ns >> cfg.shift(i)
            for index, cycle in enumerate(window.cycle_ids.tolist()):
                if cycle == EMPTY:
                    continue
                wrapped_tts = (cycle << cfg.k) | index
                abs_tts = unwrap(wrapped_tts, tts_bits, reference_tts)
                if abs_tts < 0:
                    continue
                absolute.cycle_ids[index] = abs_tts >> cfg.k
                absolute.flow_idx[index] = window.flow_idx[index]
            out.append(absolute)
        return out

    def occupancy(self) -> List[int]:
        return [w.occupancy() for w in self.windows]
