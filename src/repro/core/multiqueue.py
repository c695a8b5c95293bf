"""Per-class queue monitoring (Section 5, last paragraph).

Hardware scheduling frameworks build advanced policies out of smaller
FIFO queues; the paper notes the queue monitor "can track each priority
or rank separately".  :class:`ClassedQueueMonitor` keeps one sparse
stack per class of service and fans enqueue/dequeue events out by the
packet's class, while still answering aggregate queries across classes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.queries import FlowEstimate
from repro.core.queuemonitor import QueueMonitor, QueueMonitorSnapshot
from repro.switch.packet import FlowKey
from repro.switch.records import FlowTable


class ClassedQueueMonitor:
    """A bank of queue monitors, one per class of service.

    Classes are created lazily on first use, capped at ``max_classes``
    (hardware allocates the per-class partitions up front; the cap
    mirrors that budget).  Every class stack indexes one ``flow_table``
    (the port's, when a port passes it), so a flow has one index however
    its packets are classed.
    """

    def __init__(
        self,
        levels: int,
        granularity: int = 1,
        max_classes: int = 8,
        flow_table: Optional[FlowTable] = None,
    ) -> None:
        if max_classes < 1:
            raise ValueError(f"need at least one class, got {max_classes}")
        self.levels = levels
        self.granularity = granularity
        self.max_classes = max_classes
        self.flow_table = flow_table if flow_table is not None else FlowTable()
        self._monitors: Dict[int, QueueMonitor] = {}
        self.clamped_classes = 0

    def _class_of(self, cls: int) -> int:
        if cls < 0:
            raise ValueError(f"negative class: {cls}")
        if cls >= self.max_classes:
            self.clamped_classes += 1
            cls = self.max_classes - 1
        return cls

    def monitor(self, cls: int) -> QueueMonitor:
        cls = self._class_of(cls)
        if cls not in self._monitors:
            self._monitors[cls] = QueueMonitor(
                self.levels, self.granularity, self.flow_table
            )
        return self._monitors[cls]

    @property
    def active_classes(self) -> List[int]:
        return sorted(self._monitors)

    # -- data plane -----------------------------------------------------------

    def on_enqueue(self, cls: int, flow: FlowKey, depth_after_units: int) -> None:
        """A packet of class ``cls`` raised its queue to the given depth."""
        self.monitor(cls).on_enqueue(flow, depth_after_units)

    def on_dequeue(self, cls: int, flow: FlowKey, depth_after_units: int) -> None:
        self.monitor(cls).on_dequeue(flow, depth_after_units)

    # -- control plane ----------------------------------------------------------

    def snapshot(self, time_ns: int) -> Dict[int, QueueMonitorSnapshot]:
        """Frozen copies of every active class's stack."""
        return {cls: m.snapshot(time_ns) for cls, m in self._monitors.items()}

    def original_culprits(
        self,
        snapshots: Dict[int, QueueMonitorSnapshot],
        classes: Optional[Iterable[int]] = None,
    ) -> FlowEstimate:
        """Aggregate original culprits over some (or all) classes.

        For a victim in class ``c`` under strict priority, the relevant
        classes are those that can delay it — ``0..c`` — which the caller
        selects via ``classes``.
        """
        estimate = FlowEstimate()
        selected = set(classes) if classes is not None else set(snapshots)
        for cls, snapshot in snapshots.items():
            if cls not in selected:
                continue
            for flow, count in snapshot.flow_counts().items():
                estimate.add(flow, count)
        return estimate

    def reset(self) -> None:
        for monitor in self._monitors.values():
            monitor.reset()
