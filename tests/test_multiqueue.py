"""Tests for per-class queue monitoring (ClassedQueueMonitor)."""

import pytest

from repro.core.multiqueue import ClassedQueueMonitor
from repro.switch.packet import FlowKey

FLOWS = [
    FlowKey.from_strings("10.0.0.%d" % (i + 1), "10.1.0.1", 5000 + i, 80)
    for i in range(4)
]


class TestClassManagement:
    def test_lazy_creation(self):
        cqm = ClassedQueueMonitor(levels=16)
        assert cqm.active_classes == []
        cqm.on_enqueue(2, FLOWS[0], 1)
        assert cqm.active_classes == [2]

    def test_classes_isolated(self):
        cqm = ClassedQueueMonitor(levels=16)
        cqm.on_enqueue(0, FLOWS[0], 1)
        cqm.on_enqueue(1, FLOWS[1], 1)
        snaps = cqm.snapshot(0)
        assert snaps[0].flow_counts() == {FLOWS[0]: 1}
        assert snaps[1].flow_counts() == {FLOWS[1]: 1}

    def test_classes_share_one_flow_table(self):
        """Alternating classes intern a flow once, not once per class."""
        cqm = ClassedQueueMonitor(levels=16)
        for depth, cls in enumerate((0, 1, 0, 1, 2), start=1):
            cqm.on_enqueue(cls, FLOWS[depth % 2], depth)
        assert cqm.flow_table.flows == [FLOWS[1], FLOWS[0]]
        assert {id(cqm.monitor(c).flow_table) for c in cqm.active_classes} == {
            id(cqm.flow_table)
        }

    def test_overflow_class_clamped(self):
        cqm = ClassedQueueMonitor(levels=16, max_classes=2)
        cqm.on_enqueue(7, FLOWS[0], 1)
        assert cqm.active_classes == [1]
        assert cqm.clamped_classes == 1

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError):
            ClassedQueueMonitor(levels=16).on_enqueue(-1, FLOWS[0], 1)

    def test_bad_max_classes(self):
        with pytest.raises(ValueError):
            ClassedQueueMonitor(levels=16, max_classes=0)


class TestAggregation:
    def _populate(self):
        cqm = ClassedQueueMonitor(levels=32)
        # High priority (class 0) standing at depth 2; low (class 1) at 3.
        cqm.on_enqueue(0, FLOWS[0], 1)
        cqm.on_enqueue(0, FLOWS[1], 2)
        cqm.on_enqueue(1, FLOWS[2], 1)
        cqm.on_enqueue(1, FLOWS[2], 2)
        cqm.on_enqueue(1, FLOWS[3], 3)
        return cqm

    def test_aggregate_all_classes(self):
        cqm = self._populate()
        est = cqm.original_culprits(cqm.snapshot(0))
        assert est.total == 5
        assert est[FLOWS[2]] == 2

    def test_select_classes_for_priority_victim(self):
        """A class-0 victim under strict priority is only delayed by
        class-0 traffic; the query restricts accordingly."""
        cqm = self._populate()
        est = cqm.original_culprits(cqm.snapshot(0), classes=[0])
        assert est.total == 2
        assert FLOWS[2] not in est

    def test_drain_tracked_per_class(self):
        cqm = self._populate()
        cqm.on_dequeue(1, FLOWS[2], 0)  # class-1 queue fully drains
        est = cqm.original_culprits(cqm.snapshot(1))
        assert est.total == 2  # only class 0 survivors remain

    def test_reset(self):
        cqm = self._populate()
        cqm.reset()
        assert cqm.original_culprits(cqm.snapshot(0)).total == 0
