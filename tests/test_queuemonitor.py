"""Tests for the queue monitor (Section 5) — including a replay of the
paper's Figure 7 example and a hypothesis equivalence proof against the
exact monotone-stack oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queuemonitor import _PAGE, QueueMonitor, QueueMonitorSnapshot
from repro.faults import FaultInjector, FaultPlan
from repro.switch.packet import FlowKey
from repro.switch.records import FlowColumn

FLOWS = {
    name: FlowKey.from_strings("10.0.0.%d" % (i + 1), "10.1.0.1", 5000 + i, 80)
    for i, name in enumerate("ABCDEFGH")
}


class TestFigure7:
    def test_stale_peak_entry_filtered(self):
        """Figure 7: B raises the queue 2->5, the queue drains back to 2,
        D raises it 2->7.  The entry at level 5 is a stale leftover from
        the earlier peak; the walk must keep A (level <=2) and D (7) but
        not B."""
        qm = QueueMonitor(levels=16)
        qm.on_enqueue(FLOWS["A"], 2)  # A brings depth to 2
        qm.on_enqueue(FLOWS["B"], 5)  # B: 2 -> 5
        qm.on_dequeue(FLOWS["B"], 2)  # drains back to 2
        qm.on_enqueue(FLOWS["D"], 7)  # D: 2 -> 7
        snapshot = qm.snapshot(time_ns=100)
        survivors = {(e.level, e.flow) for e in snapshot.walk()}
        assert (2, FLOWS["A"]) in survivors
        assert (7, FLOWS["D"]) in survivors
        assert all(flow != FLOWS["B"] for _, flow in survivors)

    def test_flow_counts(self):
        qm = QueueMonitor(levels=16)
        qm.on_enqueue(FLOWS["A"], 1)
        qm.on_enqueue(FLOWS["A"], 2)
        qm.on_enqueue(FLOWS["B"], 3)
        counts = qm.snapshot(0).flow_counts()
        assert counts == {FLOWS["A"]: 2, FLOWS["B"]: 1}


class TestBasicSemantics:
    def test_simple_rise(self):
        qm = QueueMonitor(levels=8)
        for depth, name in [(1, "A"), (2, "B"), (3, "C")]:
            qm.on_enqueue(FLOWS[name], depth)
        entries = qm.snapshot(0).walk()
        assert [(e.level, e.flow) for e in entries] == [
            (1, FLOWS["A"]),
            (2, FLOWS["B"]),
            (3, FLOWS["C"]),
        ]

    def test_drain_clears_upper_levels(self):
        qm = QueueMonitor(levels=8)
        qm.on_enqueue(FLOWS["A"], 1)
        qm.on_enqueue(FLOWS["B"], 2)
        qm.on_dequeue(FLOWS["A"], 1)
        entries = qm.snapshot(0).walk()
        assert [(e.level, e.flow) for e in entries] == [(1, FLOWS["A"])]

    def test_refill_overwrites(self):
        qm = QueueMonitor(levels=8)
        qm.on_enqueue(FLOWS["A"], 1)
        qm.on_enqueue(FLOWS["B"], 2)
        qm.on_dequeue(FLOWS["A"], 1)
        qm.on_enqueue(FLOWS["C"], 2)
        entries = qm.snapshot(0).walk()
        assert [(e.level, e.flow) for e in entries] == [
            (1, FLOWS["A"]),
            (2, FLOWS["C"]),
        ]

    def test_empty_queue_no_survivors(self):
        qm = QueueMonitor(levels=8)
        qm.on_enqueue(FLOWS["A"], 1)
        qm.on_dequeue(FLOWS["A"], 0)
        assert qm.snapshot(0).walk() == []

    def test_granularity_folds_levels(self):
        qm = QueueMonitor(levels=8, granularity=4)
        qm.on_enqueue(FLOWS["A"], 3)  # level 0
        qm.on_enqueue(FLOWS["B"], 9)  # level 2
        entries = qm.snapshot(0).walk()
        assert [(e.level, e.flow) for e in entries] == [(2, FLOWS["B"])]

    def test_overflow_clamped(self):
        qm = QueueMonitor(levels=4)
        qm.on_enqueue(FLOWS["A"], 100)
        assert qm.overflows == 1
        assert qm.top == 3

    def test_reset(self):
        qm = QueueMonitor(levels=8)
        qm.on_enqueue(FLOWS["A"], 1)
        qm.reset()
        assert qm.snapshot(0).walk() == []
        assert qm.top == 0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            QueueMonitor(levels=0)
        with pytest.raises(ValueError):
            QueueMonitor(levels=4, granularity=0)

    def test_snapshot_is_frozen(self):
        qm = QueueMonitor(levels=8)
        qm.on_enqueue(FLOWS["A"], 1)
        snap = qm.snapshot(0)
        qm.on_enqueue(FLOWS["B"], 2)
        assert len(snap.walk()) == 1


class MonotoneStackOracle:
    """The exact original-culprit semantics: a stack of (level, flow)
    pairs, pushed on enqueue, popped down to the new depth on dequeue."""

    def __init__(self):
        self.stack = []
        self.depth = 0

    def enqueue(self, flow):
        self.depth += 1
        self.stack.append((self.depth, flow))

    def dequeue(self):
        self.depth -= 1
        while self.stack and self.stack[-1][0] > self.depth:
            self.stack.pop()

    def survivors(self):
        return list(self.stack)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(st.booleans(), min_size=1, max_size=400),
)
def test_monitor_equals_oracle(ops):
    """With granularity 1 and lossless levels, the queue monitor's walk
    must equal the exact monotone-stack oracle after any enqueue/dequeue
    sequence (dequeues on an empty queue are skipped)."""
    qm = QueueMonitor(levels=512)
    oracle = MonotoneStackOracle()
    flows = list(FLOWS.values())
    i = 0
    for is_enqueue in ops:
        if is_enqueue:
            flow = flows[i % len(flows)]
            i += 1
            oracle.enqueue(flow)
            qm.on_enqueue(flow, oracle.depth)
        else:
            if oracle.depth == 0:
                continue
            leaving = flows[(i * 7) % len(flows)]
            oracle.dequeue()
            qm.on_dequeue(leaving, oracle.depth)
    got = [(e.level, e.flow) for e in qm.snapshot(0).walk()]
    assert got == oracle.survivors()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scan_equals_walk_on_random_registers(data):
    """The production prefix scan against the Section-5 walk on arbitrary
    register contents: stale peaks above ``top``, unset levels, ``top ==
    0``, equal inc/dec sequence numbers and increases landed on level 0
    (a small sequence range makes all of them common)."""
    levels = data.draw(st.integers(1, 24))
    seqs = st.lists(st.integers(-1, 10), min_size=levels, max_size=levels)
    inc = data.draw(seqs)
    table = list(FLOWS.values())
    snapshot = QueueMonitorSnapshot(
        time_ns=0,
        top=data.draw(st.integers(0, levels - 1)),
        inc_seq=np.array(inc, dtype=np.int64),
        inc_flow_idx=np.array(
            [
                -1 if seq == -1 else data.draw(st.integers(0, len(table) - 1))
                for seq in inc
            ],
            dtype=np.int32,
        ),
        dec_seq=np.array(data.draw(seqs), dtype=np.int64),
        flow_table=table,
    )
    entries = snapshot.walk()
    got_levels, got_seqs, got_flows = snapshot.scan()
    assert got_levels.tolist() == [e.level for e in entries]
    assert got_seqs.tolist() == [e.seq for e in entries]
    assert [table[i] for i in got_flows.tolist()] == [e.flow for e in entries]
    expected = {}
    for entry in entries:
        expected[entry.flow] = expected.get(entry.flow, 0) + 1
    assert list(snapshot.flow_counts().items()) == list(expected.items())


# -- copy-on-write snapshots ---------------------------------------------------

_DEPTH = st.integers(0, 3 * _PAGE + 50)
_OPS = st.one_of(
    st.tuples(st.just("enq"), st.integers(0, 7), _DEPTH),
    st.tuples(st.just("deq"), st.integers(0, 7), _DEPTH),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(st.booleans(), st.integers(0, 7), _DEPTH), max_size=12),
    ),
    st.just(("reset",)),
    st.just(("snap",)),
)


def _dense(qm):
    return (qm.top, qm.inc_seq.copy(), qm.inc_flow_idx.copy(), qm.dec_seq.copy())


def _columns(snapshot):
    return (snapshot.top, snapshot.inc_seq, snapshot.inc_flow_idx, snapshot.dec_seq)


@settings(max_examples=200, deadline=None)
@given(
    levels=st.sampled_from([300, _PAGE, 2 * _PAGE + 300, 3 * _PAGE]),
    ops=st.lists(_OPS, max_size=40),
)
def test_paged_snapshots_equal_dense_copies(levels, ops):
    """Every snapshot equals a dense copy of the registers taken at the
    same instant, and still does after every later write, reset and
    snapshot: every written page is copied, no shared page is written."""
    qm = QueueMonitor(levels)
    flows = list(FLOWS.values())
    for flow in flows:
        qm.flow_table.intern(flow)
    taken = []
    for op in ops + [("snap",)]:
        if op[0] == "enq":
            qm.on_enqueue(flows[op[1]], op[2])
        elif op[0] == "deq":
            qm.on_dequeue(flows[op[1]], op[2])
        elif op[0] == "batch":
            events = op[1]
            qm.apply_batch(
                np.array([e[0] for e in events], dtype=bool),
                FlowColumn(qm.flow_table.flows, np.array([e[1] for e in events])),
                np.array([e[2] for e in events], dtype=np.int64),
            )
        elif op[0] == "reset":
            qm.reset()
        else:
            taken.append((qm.snapshot(len(taken)), _dense(qm)))
    for snapshot, (top, inc, idx, dec) in taken:
        got = _columns(snapshot)
        assert got[0] == top
        for column, expected in zip(got[1:], (inc, idx, dec)):
            assert column.dtype == expected.dtype
            assert np.array_equal(column, expected)
        dense = QueueMonitorSnapshot(snapshot.time_ns, top, inc, idx, dec, flows)
        assert snapshot == dense
        assert snapshot.max_seq == dense.max_seq
        assert [list(a) for a in snapshot.scan()] == [list(a) for a in dense.scan()]


def test_shared_pages_are_read_only():
    qm = QueueMonitor(levels=3 * _PAGE)
    qm.on_enqueue(FLOWS["A"], 5)
    first = qm.snapshot(0)
    qm.on_enqueue(FLOWS["B"], 2 * _PAGE + 5)
    second = qm.snapshot(1)
    assert len(second.chunks) == 3
    assert second.chunks[0] is first.chunks[0]
    assert second.chunks[2] is not first.chunks[2]
    for chunk in first.chunks + second.chunks:
        for column in chunk:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 7


def test_regress_leaves_sharing_snapshot_unchanged():
    """The fault injector rebinds the regressed snapshot's chunks: the
    previous snapshot, which shares its pages, keeps its registers."""
    qm = QueueMonitor(levels=2 * _PAGE + 10)
    for depth in range(1, 40):
        qm.on_enqueue(FLOWS["A"], depth)
    previous = qm.snapshot(0)
    before = [column.copy() for column in _columns(previous)[1:]]
    qm.on_enqueue(FLOWS["B"], 41)
    regressed = qm.snapshot(1)
    assert regressed.chunks[1] is previous.chunks[1]
    injector = FaultInjector(FaultPlan(name="regress"))
    assert injector.regress_qm(regressed, floor_seq=regressed.max_seq + 1)
    assert regressed.max_seq < 40
    for column, expected in zip(_columns(previous)[1:], before):
        assert np.array_equal(column, expected)
    assert qm.snapshot(2).max_seq == 40


def test_snapshots_inside_one_page_share_the_rest():
    """1 000 snapshots of a stack moving inside one page hold one new
    page each, beside the pages the first snapshot copied."""
    qm = QueueMonitor(levels=4 * _PAGE + 100)
    snapshots = []
    for i in range(1000):
        qm.on_enqueue(FLOWS["A"], _PAGE + i % 50)
        qm.on_dequeue(FLOWS["A"], _PAGE + i % 7)
        snapshots.append(qm.snapshot(i))
    pages = len(snapshots[0].chunks)
    assert pages == 5
    buffers = {id(column) for s in snapshots for chunk in s.chunks for column in chunk}
    assert len(buffers) <= 3 * (pages + 1000)
    held = {id(chunk) for s in snapshots for chunk in s.chunks}
    assert len(held) <= pages + 1000
