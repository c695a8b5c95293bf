"""Tests for the Section-2 culprit taxonomy oracle.

Scenarios are hand-crafted so the direct / indirect / original sets are
known exactly, including the Figure-1 single-burst regime.
"""


from repro.core.taxonomy import CulpritTaxonomy
from repro.switch.telemetry import DequeueRecord
from repro.switch.packet import FlowKey

A = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
B = FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5001, 80)
C = FlowKey.from_strings("10.0.0.3", "10.1.0.1", 5002, 80)


def rec(flow, enq, deq, depth=0):
    return DequeueRecord(flow, 100, enq, deq, depth)


def build(records):
    return CulpritTaxonomy(sorted(records, key=lambda r: r.deq_timestamp))


class TestDirect:
    def test_dequeued_within_interval(self):
        victim = rec(C, 50, 100)
        records = [
            rec(A, 0, 40),  # before enqueue: not direct
            rec(A, 10, 60),  # within [50, 100]: direct
            rec(B, 20, 100),  # at the victim's dequeue instant: direct
            victim,
            rec(B, 90, 140),  # after: not direct
        ]
        direct = build(records).direct(victim)
        assert direct.as_dict() == {A: 1, B: 1}

    def test_victim_excluded_from_own_culprits(self):
        victim = rec(A, 0, 100)
        records = [victim, rec(A, 10, 50)]
        direct = build(records).direct(victim)
        assert direct[A] == 1  # only the other A packet

    def test_empty_when_no_queuing(self):
        victim = rec(A, 100, 100)
        records = [rec(B, 0, 10), victim]
        assert build(records).direct(victim).total == 0


class TestIndirect:
    def test_requires_unbroken_occupancy(self):
        # A dequeues at 55 and the queue sits empty until the victim
        # enqueues at 60: A is NOT indirectly culpable (the depth must be
        # positive throughout [t2', t1] per Section 2).
        victim = rec(C, 60, 100)
        records = [rec(A, 50, 55), victim]
        assert build(records).indirect(victim).total == 0

    def test_bridged_occupancy_included(self):
        # A dequeues before the victim enqueues, but B keeps the queue
        # non-empty across the gap: A is indirect, B is direct.
        victim = rec(C, 60, 100)
        records = [rec(A, 50, 55), rec(B, 52, 70), victim]
        tax = build(records)
        indirect = tax.indirect(victim)
        assert indirect.as_dict() == {A: 1}
        assert tax.direct(victim).as_dict() == {B: 1}

    def test_packet_that_emptied_queue_excluded(self):
        # B's dequeue at t=30 empties the queue: B predates the regime.
        # A1 dequeues inside the regime before the victim's enqueue while
        # A2 keeps the queue occupied.
        victim = rec(C, 40, 80)
        records = [rec(B, 0, 30), rec(A, 31, 38), rec(A, 33, 50), victim]
        tax = build(records)
        assert tax.regime_start(40) == 30
        indirect = tax.indirect(victim)
        assert B not in indirect
        assert indirect[A] == 1  # only the packet dequeued at 38

    def test_direct_union_indirect_covers_regime(self):
        victim = rec(C, 60, 100)
        records = [
            rec(A, 50, 55),
            rec(B, 52, 70),
            rec(A, 58, 90),
            victim,
        ]
        tax = build(records)
        union = tax.direct(victim).merge(tax.indirect(victim))
        # All three non-victim packets belong to the regime.
        assert union.total == 3

    def test_matches_brute_force_count(self):
        # B and C depart together at t=20 and empty the queue; every later
        # packet shares that regime start, so each one's indirect culprits
        # are the packets dequeued strictly inside (20, its enqueue).
        records = [
            rec(A, 0, 10),
            rec(B, 2, 20),
            rec(C, 4, 20),
            rec(A, 21, 35),
            rec(B, 22, 45),
            rec(C, 23, 55),
            rec(A, 30, 65),
            rec(B, 50, 75),
            rec(C, 60, 80),
        ]

        def occupancy(t):
            return sum(r.enq_timestamp <= t < r.deq_timestamp for r in records)

        def brute_force(victim):
            start = max(
                [0]
                + [
                    r.deq_timestamp
                    for r in records
                    if r.deq_timestamp <= victim.enq_timestamp
                    and occupancy(r.deq_timestamp) == 0
                ]
            )
            counts = {}
            for r in records:
                if start < r.deq_timestamp < victim.enq_timestamp:
                    counts[r.flow] = counts.get(r.flow, 0) + 1
            return counts

        tax = build(records)
        starts = [tax.regime_start(r.enq_timestamp) for r in records[3:]]
        assert starts == [20] * 6
        for victim in records:
            assert tax.indirect(victim).as_dict() == brute_force(victim), victim
        assert tax.indirect(records[-1]).as_dict() == {A: 1, B: 1, C: 1}


class TestOriginal:
    def test_simple_buildup(self):
        # A, B, C enqueue back-to-back; none dequeued yet by t=25.
        records = [
            rec(A, 10, 100),
            rec(B, 12, 200),
            rec(C, 14, 300),
        ]
        original = build(records).original(25)
        assert original.as_dict() == {A: 1, B: 1, C: 1}

    def test_drain_pops_levels(self):
        # Depth: 1,2 (A,B enq) then A leaves -> depth 1; C enq -> 2.
        records = [
            rec(A, 0, 20),
            rec(B, 5, 40),
            rec(C, 30, 60),
        ]
        original = build(records).original(35)
        # At t=35: A gone (its level-1 slot now...); monotone stack keeps
        # the first packet still standing at each level: A left at 20, so
        # level 1 is B's? No: the stack pops levels above current depth.
        # Replay: enq A (d1), enq B (d2), deq A (d1, pops level-2 entry B),
        # enq C (d2). Survivors: level1=A... A dequeued but the *level*
        # survives: stack holds (1, A), (2, C).
        assert original.as_dict() == {A: 1, C: 1}

    def test_figure1_burst(self):
        """Figure-1-style burst: early packets that raised the queue are
        the original culprits even after they depart."""
        # Burst of 3 at t=0..2 raising depth to 3; drain holds depth as
        # new packets keep arriving one-for-one.
        records = [
            rec(A, 0, 10),
            rec(A, 1, 20),
            rec(A, 2, 30),
            rec(B, 11, 40),  # arrives as one leaves: depth oscillates 2-3
            rec(B, 21, 50),
            rec(C, 31, 60),
        ]
        original = build(records).original(35)
        total = original.total
        assert total == 3  # queue depth is 3-ish; three standing levels
        assert original[A] >= 1  # the burst is still implicated

    def test_at_time_zero(self):
        records = [rec(A, 0, 10)]
        assert build(records).original(0).total == 0


class TestRegimeStart:
    def test_no_prior_empty_returns_zero(self):
        records = [rec(A, 5, 50), rec(B, 6, 80)]
        assert build(records).regime_start(40) == 0

    def test_congestion_regime_span(self):
        victim = rec(C, 60, 100)
        records = [rec(B, 0, 30), rec(A, 50, 65), victim]
        tax = build(records)
        assert tax.congestion_regime(victim) == (30, 100)
