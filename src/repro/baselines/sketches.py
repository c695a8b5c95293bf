"""Sketch substrate: the Count-Min sketch.

The paper explicitly does *not* compare PrintQueue against sketches —
"they cannot provide flow IDs, only aggregate byte counts" (Section 7.1)
— but sketches are part of the measurement landscape the related-work
section surveys, and the test suite uses them as a reference point for
error behaviour of the richer baselines.
"""

from __future__ import annotations

from typing import List

from repro.switch.packet import FlowKey

_MASK64 = (1 << 64) - 1


def _hash(flow_id: int, row: int, width: int) -> int:
    x = (flow_id ^ ((row + 1) * 0x9E3779B97F4A7C15)) & _MASK64
    x ^= x >> 31
    x = (x * 0x7FB5D329728EA185) & _MASK64
    x ^= x >> 27
    return x % width


class CountMinSketch:
    """Classic Count-Min: per-row hashed counters, min on read."""

    def __init__(self, width: int = 4096, depth: int = 4) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]

    def update(self, flow: FlowKey, count: int = 1) -> None:
        flow_id = flow.flow_id()
        for row in range(self.depth):
            self._rows[row][_hash(flow_id, row, self.width)] += count

    def estimate(self, flow: FlowKey) -> int:
        """Never underestimates: min over the flow's counters."""
        flow_id = flow.flow_id()
        return min(
            self._rows[row][_hash(flow_id, row, self.width)]
            for row in range(self.depth)
        )

    def reset(self) -> None:
        self._rows = [[0] * self.width for _ in range(self.depth)]
