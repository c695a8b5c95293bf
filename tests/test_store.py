"""The pluggable snapshot store: backends, retention, record/replay.

Three invariant families:

* **Backend conformance** — both backends (memory / mmap) expose the
  same views, version-counter semantics, retention behaviour, and
  quarantine contract.
* **Retention** — eviction follows the one count cap, for time-window
  and polled queue-monitor snapshots alike, and rides the add's single
  version bump.
* **Record/replay determinism** — a run recorded through ``MmapStore``,
  reopened or replayed through either backend, reproduces the exact same
  snapshots, version evolution, query results, plan-cache hit pattern,
  and deterministic RunReport view as the live run.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import TimeWindowSnapshot
from repro.core.config import PrintQueueConfig
from repro.core.queries import QueryInterval
from repro.core.queuemonitor import QueueMonitorSnapshot
from repro.errors import ConfigError, StoreError
from repro.experiments.runner import query_time_windows_scalar, simulate_workload
from repro.faults.injector import FaultInjector
from repro.faults import profile_names
from repro.faults.plan import FaultPlan
from repro.obs.report import RunReport
from repro.store import (
    BACKENDS,
    MemoryStore,
    MmapStore,
    RetentionPolicy,
    SnapshotView,
    default_probe_intervals,
    replay_analysis,
    replay_store,
)
from repro.store import format as fmt
from repro.switch.packet import FlowKey

from tests.windows import make_windows

FLOW_A = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5001, 80)
FLOW_B = FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5002, 80)

CONFIG = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)


def make_tw(read_time_ns, source="periodic", extra_flow=None):
    """A small two-window snapshot with deterministic contents."""
    flows = [FLOW_A, FLOW_B] + ([extra_flow] if extra_flow else [])
    cells0 = [(read_time_ns // 64 + i, f) for i, f in enumerate(flows)]
    cells1 = [(read_time_ns // 256, FLOW_B)]
    return TimeWindowSnapshot(
        read_time_ns=read_time_ns,
        windows=make_windows([(0, 6, cells0, cells0[-1][0]), (1, 8, cells1, None)]),
        source=source,
        valid_from_ns=max(0, read_time_ns - 1000),
    )


def make_qm(time_ns):
    """A three-level queue-monitor snapshot."""
    return QueueMonitorSnapshot(
        time_ns=time_ns,
        top=2,
        inc_seq=np.array([-1, 4, 9], dtype=np.int64),
        inc_flow_idx=np.array([-1, 0, 1], dtype=np.int32),
        dec_seq=np.array([3, -1, -1], dtype=np.int64),
        flow_table=[FLOW_A, FLOW_B],
    )


def make_store(backend, tmp_path, retention=None, name="s.pqstore"):
    if backend == "memory":
        return MemoryStore(retention=retention)
    return MmapStore(tmp_path / name, retention=retention)


# ---------------------------------------------------------------------------
# backend conformance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendConformance:
    def test_views_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        snaps = [make_tw(t) for t in (1000, 2000, 3000)]
        for s in snaps:
            store.add_tw(s)
        qm = make_qm(1500)
        store.add_qm(qm)
        assert isinstance(store.tw_view(), SnapshotView)
        assert list(store.tw_view()) == snaps
        assert store.tw_view() == snaps  # view/list equality
        assert store.tw_view()[1] == snaps[1]
        assert store.tw_view()[-2:] == snaps[-2:]
        assert len(store.qm_view()) == 1 and store.qm_view()[0] == qm

    def test_out_of_order_add_keeps_ascending(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        for t in (3000, 1000, 2000):
            store.add_tw(make_tw(t))
        times = [s.read_time_ns for s in store.tw_view()]
        assert times == [1000, 2000, 3000]

    def test_version_semantics(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        assert store.version == 0
        store.add_tw(make_tw(1000))
        assert store.version == 1
        store.add_qm(make_qm(1100))  # qm snapshots never invalidate plans
        assert store.version == 1
        store.bump_version()
        assert store.version == 2

    def test_eviction_follows_policy_single_bump(self, backend, tmp_path):
        store = make_store(
            backend, tmp_path, retention=RetentionPolicy(max_snapshots=2)
        )
        for t in (1000, 2000, 3000):
            store.add_tw(make_tw(t))
        assert [s.read_time_ns for s in store.tw_view()] == [2000, 3000]
        stats = store.deterministic_stats()
        assert stats["tw_evictions"] == 1
        assert stats["tw_added"] == 3
        # One bump per add; the eviction rides the add's bump.
        assert store.version == 3

    def test_qm_retention_bounded_vs_hardware(self, backend, tmp_path):
        # The one cap bounds the polled monitor snapshots too.
        store = make_store(
            backend, tmp_path, retention=RetentionPolicy(max_snapshots=2)
        )
        for t in (100, 200, 300):
            store.add_qm(make_qm(t))
        assert [s.time_ns for s in store.qm_view()] == [200, 300]
        # The on-demand (hardware) capture is outside the poll cadence.
        store.add_qm(make_qm(400), bounded=False)
        assert [s.time_ns for s in store.qm_view()] == [200, 300, 400]
        assert store.deterministic_stats()["qm_evictions"] == 1

    def test_quarantine_replacement_bumps_version(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        snapshot = make_tw(1000)
        store.add_tw(snapshot)
        stored = store.tw_view()[0]
        version = store.version
        replacement = [stored.windows[1]]
        store.replace_windows(stored, replacement)
        assert store.version == version + 1
        assert store.tw_view()[0].windows == replacement
        assert store.deterministic_stats()["quarantine_replacements"] == 1

    def test_views_are_read_only(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.add_tw(make_tw(1000))
        view = store.tw_view()
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view[0] = None

    def test_stats_shape(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.add_tw(make_tw(1000))
        store.add_qm(make_qm(1100))
        stats = store.stats()
        assert stats["backend"] == backend
        assert stats["bytes_total"] == stats["tw_bytes"] + stats["qm_bytes"]
        assert stats["tw_bytes"] > 0 and stats["qm_bytes"] > 0
        det = store.deterministic_stats()
        assert "backend" not in det and "tw_bytes" not in det


# ---------------------------------------------------------------------------
# retention policy
# ---------------------------------------------------------------------------


class TestRetentionPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetentionPolicy(max_snapshots=0)


def _assert_nearest_is_linear_min(store, probes):
    """``nearest_qm`` picks the entry the linear ``min`` over the stored
    keys picks: the closest, the earliest stored on a tie."""
    for t in probes:
        if not store._qm_entries:
            assert store.nearest_qm(t) is None
            continue
        entry = min(store._qm_entries, key=lambda e: abs(e.key - t))
        assert store.nearest_qm(t) is store._decode_entry_qm(entry), t


class TestNearestQm:
    @given(
        adds=st.lists(
            st.tuples(st.integers(0, 40), st.booleans()), max_size=40
        ).map(sorted),
        cap=st.integers(1, 12),
        probes=st.lists(st.integers(-5, 50), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_bisect_equals_linear_min(self, adds, cap, probes):
        """Duplicate keys, bounded and unbounded adds, front eviction."""
        store = MemoryStore(retention=RetentionPolicy(max_snapshots=cap))
        for key, bounded in adds:
            store.add_qm(make_qm(key), bounded=bounded)
        assert store._qm_sorted
        _assert_nearest_is_linear_min(store, probes)

    @pytest.mark.parametrize("faults", [None] + profile_names())
    def test_fault_profiles_store_monitor_keys_in_time_order(self, faults):
        """Delayed, dropped and faulted polls and the data-plane reads a
        drive triggers all append in time order, so the store bisects;
        also across the idle gaps of a light load, where several polls
        fall due at one event."""
        for load in (1.3, 0.3):
            run = simulate_workload(
                "ws",
                3_000_000,
                load=load,
                config=CONFIG,
                seed=5,
                dp_trigger_indices=set(range(0, 2_000, 97)),
                faults=faults,
            )
            store = run.pq.analysis.store
            assert store._qm_sorted and len(store._qm_entries) > 10, load
            end = run.records[-1].deq_timestamp
            _assert_nearest_is_linear_min(store, range(-1_000, end + 2_000, 997))

    def test_late_data_plane_read_falls_back_to_the_scan(self):
        """A data-plane query at an earlier instant after the drive stores
        its monitor snapshot below the last key: the store scans."""
        run = simulate_workload("ws", 3_000_000, load=1.3, config=CONFIG, seed=5)
        store = run.pq.analysis.store
        run.pq.query(interval=QueryInterval(1_000_000, 1_500_000), mode="data_plane")
        assert not store._qm_sorted
        assert store._qm_entries[-1].key == 1_499_999
        _assert_nearest_is_linear_min(store, range(0, 3_000_000, 4_999))


def _scan_regime_start(snapshots, time_ns, max_top):
    """The decode-everything scan the store's key walk replaced."""
    candidates = [s for s in snapshots if s.time_ns <= time_ns]
    drained = [s.time_ns for s in candidates if s.top <= max_top]
    if drained:
        return max(drained)
    if candidates:
        return candidates[0].time_ns
    return 0


class TestLastDrainedQm:
    @given(
        adds=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 2), st.booleans()),
            max_size=30,
        ),
        ordered=st.booleans(),
        cap=st.integers(1, 12),
        max_top=st.integers(0, 2),
        probes=st.lists(st.integers(-5, 50), min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_key_walk_equals_the_decoding_scan(
        self, tmp_path_factory, adds, ordered, cap, max_top, probes
    ):
        """Sorted keys (bisected) and unsorted ones (a late data-plane
        read: scanned in storage order), on both backends and on a
        reopened file, whose entries carry the top read off the frame."""
        if ordered:
            adds = sorted(adds)
        retention = RetentionPolicy(max_snapshots=cap)
        path = tmp_path_factory.mktemp("regime") / "r.pqstore"
        stores = [
            MemoryStore(retention=retention),
            MmapStore(path, retention=retention),
        ]
        for key, top, bounded in adds:
            snapshot = make_qm(key)
            snapshot.top = top
            for store in stores:
                store.add_qm(snapshot, bounded=bounded)
        stores[1].close()
        if adds:  # the file is written from the first add on
            stores.append(MmapStore.open(path))
        for store in stores:
            if ordered:
                assert store._qm_sorted
            view = list(store.qm_view())
            for t in probes:
                expected = _scan_regime_start(view, t, max_top)
                assert store.last_drained_qm_ns(t, max_top) == expected, t


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------


class TestFormat:
    def test_tw_round_trip(self):
        snapshot = make_tw(123_456, source="data-plane")
        decoded = fmt.decode_tw(fmt.encode_tw(snapshot), 0)
        assert decoded == snapshot
        # Columnar arrays are rebuilt as zero-copy views over the blob.
        assert decoded.windows[0].tts_array is not None
        assert list(decoded.windows[0].tts_array) == [
            tts for tts, _ in snapshot.windows[0].cells
        ]

    def test_tw_windows_over_two_flow_tables_are_rejected(self):
        """The encoder interns one shared table; windows over another
        table would be written against the wrong flows."""
        windows = make_windows([(0, 6, [(5, FLOW_A)], 5)])
        windows += make_windows([(1, 8, [(1, FLOW_B)], 1)])
        snapshot = TimeWindowSnapshot(read_time_ns=400, windows=windows)
        with pytest.raises(StoreError, match="one flow table"):
            fmt.encode_tw(snapshot)

    def test_qm_round_trip(self):
        snapshot = make_qm(987)
        for bounded in (True, False):
            payload = fmt.encode_qm(snapshot, bounded)
            decoded, got_bounded = fmt.decode_qm(payload, 0)
            assert decoded == snapshot and got_bounded is bounded

    def test_qm_decode_returns_read_only_views(self, tmp_path):
        """Over ``bytes`` and over the map alike: no per-level re-boxing."""
        payload = fmt.encode_qm(make_qm(987), True)
        store = MmapStore(tmp_path / "v.pqstore")
        store.add_qm(make_qm(987))
        store.close()
        reopened = MmapStore.open(tmp_path / "v.pqstore")
        for buf, decoded in (
            (payload, fmt.decode_qm(payload, 0)[0]),
            (reopened._buffer(), reopened.qm_view()[0]),
        ):
            raw = np.frombuffer(buf, dtype=np.uint8)
            for column in (decoded.inc_seq, decoded.dec_seq, decoded.inc_flow_idx):
                assert np.shares_memory(column, raw)
                assert not column.flags.writeable
            assert decoded == make_qm(987)
        # The fault injector must rebind such columns, never write them.
        injector = FaultInjector(FaultPlan(name="regress"))
        assert injector.regress_qm(decoded, floor_seq=5)
        assert decoded.max_seq == 4 and decoded.inc_seq.tolist() == [-1, -1, 4]

    def test_qm_bytes_match_parent_commit(self, tmp_path):
        """PQSTORE1 is unchanged by the columnar monitor: the seed-1 uw
        20 ms run writes the file the list-register encoder wrote.

        The pin moved once since, when the header's ``retention`` object
        shrank to ``{"max_snapshots": 4096}``; every record frame after
        the header stayed byte-identical."""
        path = tmp_path / "golden.pqstore"
        run = simulate_workload(
            "uw", duration_ns=20_000_000, seed=1, store=MmapStore(path)
        )
        run.pq.analysis.store.close()
        assert len(run.pq.analysis.qm_snapshots) > 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "72c7c278b6ac05b6476123c376203a24e0e604312fcab064456cc6b8a220f854"
        )

    def test_header_round_trip(self):
        meta = {"kind": "printqueue-run", "d_ns": 12.5, "nested": {"a": 1}}
        blob = fmt.encode_header(meta)
        got, offset = fmt.read_header(blob)
        assert got == meta and offset == len(blob)

    def test_corrupt_header_raises(self):
        with pytest.raises(fmt.DecodeError):
            fmt.read_header(b"NOTSTORE" + b"\x00" * 16)

    def test_replace_round_trip(self):
        snapshot = make_tw(55_000)
        payload = fmt.encode_replace(7, snapshot)
        target, decoded = fmt.decode_replace(payload, 0)
        assert target == 7 and decoded == snapshot


# ---------------------------------------------------------------------------
# record / replay
# ---------------------------------------------------------------------------


def recorded_run(path, **kwargs):
    """One faulted workload run with its poll stream recorded to path."""
    store = MmapStore(path)
    run = simulate_workload(
        "ws",
        duration_ns=1_200_000,
        load=1.3,
        config=CONFIG,
        seed=11,
        faults="flaky-rpc",
        store=store,
        **kwargs,
    )
    store.flush()
    return run, store


class TestRecordReplay:
    def test_recording_is_deterministic(self, tmp_path):
        a = tmp_path / "a.pqstore"
        b = tmp_path / "b.pqstore"
        recorded_run(a)
        recorded_run(b)
        assert a.read_bytes() == b.read_bytes()

    def test_inspect_counts(self, tmp_path):
        path = tmp_path / "run.pqstore"
        _, store = recorded_run(path)
        reopened = MmapStore.open(path)
        assert reopened.tw_added == store.tw_added
        assert reopened.qm_added == store.qm_added
        assert reopened.replay_position == (
            store.tw_added + store.qm_added + store.quarantine_replacements
        )
        assert reopened.replay_position >= 2
        assert reopened.meta["config"]["k"] == CONFIG.k

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_matches_live_store(self, backend, tmp_path):
        path = tmp_path / "run.pqstore"
        run, live = recorded_run(path)
        replayed = replay_store(path, backend=backend)
        assert replayed.deterministic_stats() == live.deterministic_stats()
        assert list(replayed.tw_view()) == list(live.tw_view())
        assert list(replayed.qm_view()) == list(live.qm_view())
        assert replayed.replay_position == MmapStore.open(path).replay_position

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replayed_queries_match_live(self, backend, tmp_path):
        path = tmp_path / "run.pqstore"
        run, _ = recorded_run(path)
        live = run.pq.analysis
        replayed = replay_analysis(path, backend=backend)
        intervals = default_probe_intervals(live, 4)
        assert intervals == default_probe_intervals(replayed, 4)
        live_batch = live.query_time_windows_batch(intervals)
        replay_batch = replayed.query_time_windows_batch(intervals)
        for a, b in zip(live_batch, replay_batch):
            assert a._counts == b._counts
        for interval in intervals:  # scalar engine agrees too
            a = query_time_windows_scalar(live, interval)
            b = query_time_windows_scalar(replayed, interval)
            assert a._counts == b._counts
        # Original culprits too, in the walk's first-survivor order.
        for t in [s.time_ns for s in live.qm_snapshots]:
            expected = {}
            for entry in live.query_queue_monitor(t).walk():
                expected[entry.flow] = expected.get(entry.flow, 0.0) + 1
            assert list(run.pq.query(at_ns=t).estimate.items()) == list(
                expected.items()
            )
            assert list(replayed.original_culprits(t).items()) == list(
                expected.items()
            )

    def test_queue_monitor_query_decodes_one_snapshot(self, tmp_path):
        path = tmp_path / "n.pqstore"
        store = MmapStore(path)
        for t in (100, 300, 500):
            store.add_qm(make_qm(t))
        store.close()
        replayed = MmapStore.open(path)
        assert [e.key for e in replayed._qm_entries] == [100, 300, 500]
        # 200 is equally far from 100 and 300: the earlier one wins.
        assert replayed.nearest_qm(200).time_ns == 100
        assert [e.cached is not None for e in replayed._qm_entries] == [
            True,
            False,
            False,
        ]
        assert MemoryStore().nearest_qm(0) is None

    def test_replay_reproduces_plan_cache_pattern(self, tmp_path):
        path = tmp_path / "run.pqstore"
        run, _ = recorded_run(path)
        live = run.pq.analysis
        replayed = replay_analysis(path, backend="mmap")
        intervals = default_probe_intervals(live, 3)
        for analysis in (live, replayed):
            analysis.query_time_windows_batch(intervals)
            analysis.query_time_windows_batch(intervals)
        assert replayed.plan_cache_misses == live.plan_cache_misses
        assert replayed.plan_cache_hits == live.plan_cache_hits
        assert replayed.snapshot_compile_misses == live.snapshot_compile_misses

    def test_replace_records_replay(self, tmp_path):
        path = tmp_path / "q.pqstore"
        store = MmapStore(path)
        store.bind({"retention": {"max_snapshots": 8}})
        store.add_tw(make_tw(1000))
        store.add_tw(make_tw(2000))
        victim = store.tw_view()[0]
        store.replace_windows(victim, [victim.windows[1]])
        unstored = make_tw(3000)
        store.replace_windows(unstored, [unstored.windows[0]])
        store.flush()
        for backend in BACKENDS:
            replayed = replay_store(path, backend=backend)
            assert replayed.deterministic_stats() == store.deterministic_stats()
            assert list(replayed.tw_view()) == list(store.tw_view())

    def test_unstored_replacement_is_journaled(self, tmp_path):
        """A failed on-demand read (free reads, as the service and the
        benchmark ports run) quarantines a snapshot the store never held.
        The file must journal it with target -1, or the reopened file
        replays to a different store version than the live run."""
        path = tmp_path / "dp.pqstore"
        store = MmapStore(path)
        run = simulate_workload(
            "ws",
            duration_ns=4_000_000,
            seed=11,
            config=PrintQueueConfig(m0=6, k=6, T=3),
            faults=FaultPlan(name="all-rpc", rpc_failure_rate=1.0),
            store=store,
        )
        victims = sorted(run.records, key=lambda r: -r.queuing_delay)[:21]
        for v in victims:
            run.pq.query(
                interval=QueryInterval.for_victim(v.enq_timestamp, v.deq_timestamp),
                mode="data_plane",
                at_ns=v.deq_timestamp,
            )
        store.flush()
        live = store.deterministic_stats()
        assert live["version"] == 22 and live["quarantine_replacements"] == 21
        assert MmapStore.open(path).deterministic_stats() == live
        for backend in BACKENDS:
            assert replay_store(path, backend=backend).deterministic_stats() == live

    def test_mmap_write_store_is_its_own_recording(self, tmp_path):
        path = tmp_path / "w.pqstore"
        store = MmapStore(path)
        store.bind({"retention": {"max_snapshots": 8}})
        store.add_tw(make_tw(1000))
        store.add_qm(make_qm(1100))
        store.flush()
        replayed = replay_store(path, backend="memory")
        assert replayed.deterministic_stats() == store.deterministic_stats()
        assert list(replayed.tw_view()) == list(store.tw_view())

    def test_replay_derives_retention_from_header(self, tmp_path):
        path = tmp_path / "r.pqstore"
        store = MmapStore(path, retention=RetentionPolicy(max_snapshots=2))
        store.bind({"retention": {"max_snapshots": 2}})
        for t in (1000, 2000, 3000):
            store.add_tw(make_tw(t))
        store.flush()
        for backend in BACKENDS:
            replayed = replay_store(path, backend=backend)
            assert replayed.retention.max_snapshots == 2
            assert replayed.version == store.version == 3
            assert list(replayed.tw_view()) == list(store.tw_view())

    def test_deterministic_report_sections_survive_replay(self, tmp_path):
        """The RunReport "store" section is backend-independent."""
        path = tmp_path / "run.pqstore"
        run, live = recorded_run(path)
        report = RunReport.from_port(run.pq)
        assert report.section("store") == live.deterministic_stats()
        assert "store" in report.deterministic_view()
        # Tier-specific gauges stay out of the deterministic view.
        assert "store_backend" not in report.deterministic_view()
        for backend in BACKENDS:
            replayed = replay_store(path, backend=backend)
            assert report.section("store") == replayed.deterministic_stats()


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------


class TestStoreCli:
    def test_record_then_replay_digest_is_identical(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.pqstore")
        args = ["--duration-ms", "2", "--queries", "2", "--seed", "3"]
        assert main(["store", "record", path] + args) == 0
        record_out = capsys.readouterr().out
        record_probes = [
            line for line in record_out.splitlines() if line.startswith("probe")
        ]
        assert record_probes
        for backend in BACKENDS:
            assert (
                main(
                    ["store", "replay", path, "--backend", backend]
                    + ["--queries", "2"]
                )
                == 0
            )
            replay_out = capsys.readouterr().out
            replay_probes = [
                line
                for line in replay_out.splitlines()
                if line.startswith("probe")
            ]
            assert replay_probes == record_probes

    def test_interrupted_record_leaves_a_valid_prefix(self, tmp_path, monkeypatch):
        import repro.cli as cli

        def interrupted(*args, store, **kwargs):
            store.add_tw(make_tw(1000))
            store.add_qm(make_qm(1100))
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "simulate_workload", interrupted)
        path = tmp_path / "cut.pqstore"
        assert cli.main(["store", "record", str(path)]) == 130
        reopened = MmapStore.open(path)
        assert (reopened.tw_added, reopened.qm_added) == (1, 1)
        assert list(reopened.tw_view()) == [make_tw(1000)]

    def test_inspect_json_feeds_store_metrics(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = str(tmp_path / "cli.pqstore")
        main(["store", "record", path, "--duration-ms", "2", "--queries", "0"])
        capsys.readouterr()
        assert main(["store", "inspect", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["backend"] == "mmap"
        assert document["records"] == document["stats"]["replay_position"]
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        try:
            from lint_report import store_metrics
        finally:
            sys.path.pop(0)
        entries = store_metrics(document)
        assert entries["pq_store_tw_added_total"] == document["stats"]["tw_added"]
