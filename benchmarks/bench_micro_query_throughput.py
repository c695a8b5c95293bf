"""Section 7.1 micro-benchmarks of the analysis program itself.

* Query throughput: the paper's Python analysis front end executes
  ~100 queries/second; this bench measures ours on comparable state.
* Batch query speedup: 1000 victims answered by one
  ``pq.query(intervals=...)`` call over the compiled columnar plan vs
  the scalar specification (``query_time_windows_scalar``, one
  per-cell walk per victim); results asserted identical and the speedup
  recorded in ``benchmarks/BENCH_query.json`` together with the plan's
  one-query-at-a-time rate (``pq.query(interval=...)``).
* Data-plane update rate: per-packet cost of the Algorithm-1 pipeline.
* On-demand read rejection: with the PCIe read-cost model enabled,
  closely spaced data-plane triggers are rejected while the special
  registers drain — quantifying why "operators should be judicious
  about initiating data-plane queries".
"""

import json
import os
import platform
import random
import time

import numpy as np

from common import SCALE, ground_truth, port, print_table, scalar_reference
from repro.core.analysis import AnalysisProgram
from repro.core.config import PrintQueueConfig
from repro.core.queries import QueryInterval
from repro.switch.packet import FlowKey

CONFIG = PrintQueueConfig(m0=6, k=12, alpha=2, T=4, min_packet_bytes=64)

#: Batch-vs-scalar acceptance floors: the columnar plan must answer a
#: 1000-victim batch at least 5x faster than the scalar loop at full
#: scale; scaled-down smoke runs keep a lower floor (fewer snapshots to
#: amortise the compile over).
BATCH_VICTIMS = 1000
BATCH_FULL_SCALE_FLOOR = 5.0
BATCH_SMOKE_FLOOR = 2.0

BENCH_QUERY_PATH = os.path.join(os.path.dirname(__file__), "BENCH_query.json")


def test_query_throughput(benchmark):
    records = ground_truth("uw").records
    pq, _ = port("uw")
    rng = random.Random(7)
    indices = [rng.randrange(len(records)) for _ in range(50)]
    intervals = [
        QueryInterval.for_victim(records[i].enq_timestamp, records[i].deq_timestamp)
        for i in indices
    ]

    def do_queries():
        for interval in intervals:
            pq.query(interval=interval)

    benchmark.pedantic(do_queries, rounds=3, iterations=1)
    per_query_s = benchmark.stats["mean"] / len(intervals)
    qps = 1 / per_query_s
    print(f"\nanalysis program query rate: {qps:.0f} queries/s "
          "(paper's front end: ~100/s)")
    assert qps > 20


def _invalidate_plan(analysis):
    """Force the next batch query to recompile (fresh-poll conditions)."""
    analysis.store.bump_version()
    analysis._plan = None
    analysis._plan_key = None
    for snapshot in analysis.tw_snapshots:
        if hasattr(snapshot, "_columnar_cache"):
            del snapshot._columnar_cache


def test_query_batch_speedup():
    """1000-victim batch vs the scalar specification: identical, >=5x."""
    records = ground_truth("uw").records
    pq, _ = port("uw")
    rng = random.Random(13)
    indices = [rng.randrange(len(records)) for _ in range(BATCH_VICTIMS)]
    intervals = [
        QueryInterval.for_victim(records[i].enq_timestamp, records[i].deq_timestamp)
        for i in indices
    ]
    full_scale = SCALE >= 1.0
    rounds = 3

    scalar_s = float("inf")
    scalar_estimates = None
    for _ in range(rounds):
        start = time.perf_counter()
        estimates = scalar_reference(pq, intervals)
        scalar_s = min(scalar_s, time.perf_counter() - start)
        scalar_estimates = estimates

    # The plan asked one interval at a time (warm, as an operator's
    # follow-up questions are): recorded, not part of the floor.
    single_s = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        single_estimates = [pq.query(interval=iv).estimate for iv in intervals]
        single_s = min(single_s, time.perf_counter() - start)

    batch_s = float("inf")
    batch_estimates = None
    for _ in range(rounds):
        # Each round pays the full compile, as after a fresh poll; the
        # measured speedup is the honest cold-plan number.
        _invalidate_plan(pq.analysis)
        start = time.perf_counter()
        result = pq.query(intervals=intervals)
        batch_s = min(batch_s, time.perf_counter() - start)
        batch_estimates = result.estimates

    for i, (s, b, one) in enumerate(
        zip(scalar_estimates, batch_estimates, single_estimates)
    ):
        assert list(s.items()) == list(b.items()), f"batch diverged at victim {i}"
        assert list(s.items()) == list(one.items()), f"single diverged at victim {i}"

    speedup = scalar_s / batch_s
    record = {
        "scale": SCALE,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "victims": BATCH_VICTIMS,
        "snapshots": len(pq.analysis.tw_snapshots),
        "scalar_s": round(scalar_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(speedup, 2),
        "scalar_qps": round(BATCH_VICTIMS / scalar_s, 1),
        "batch_qps": round(BATCH_VICTIMS / batch_s, 1),
        "single_s": round(single_s, 6),
        "single_qps": round(BATCH_VICTIMS / single_s, 1),
    }
    with open(BENCH_QUERY_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print_table(
        "Micro: compiled plan (cold batch / warm singles) vs scalar walk",
        ["victims", "snapshots", "scalar", "batch", "speedup", "singles"],
        [
            (
                BATCH_VICTIMS,
                record["snapshots"],
                f"{scalar_s:.3f}s",
                f"{batch_s:.3f}s",
                f"{speedup:.2f}x",
                f"{single_s:.3f}s",
            )
        ],
    )
    floor = BATCH_FULL_SCALE_FLOOR if full_scale else BATCH_SMOKE_FLOOR
    assert speedup >= floor, (
        f"batch query speedup {speedup:.2f}x below the {floor:.1f}x floor "
        f"({'full' if full_scale else 'smoke'} scale)"
    )


def test_data_plane_update_rate(benchmark):
    analysis = AnalysisProgram(CONFIG, d_ns=110.0)
    flows = [
        FlowKey.from_strings("10.0.%d.%d" % (i // 200, i % 200 + 1), "10.1.0.1", 5000 + i, 80)
        for i in range(64)
    ]
    n = 20_000

    def feed():
        t = 0
        for i in range(n):
            analysis.on_dequeue(flows[i % 64], t)
            t += 110

    benchmark.pedantic(feed, rounds=3, iterations=1)
    rate = n / benchmark.stats["mean"]
    print(f"\nsimulated data-plane update rate: {rate / 1e6:.2f} Mpps "
          "(per-packet Algorithm-1 cost in pure Python)")
    assert rate > 100_000


def test_dp_read_rejection_under_pressure():
    """With the PCIe model on, most of a dense trigger train is ignored."""
    analysis = AnalysisProgram(CONFIG, model_dp_read_cost=True)
    flow = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
    accepted = 0
    t = 0
    for i in range(100):
        analysis.on_dequeue(flow, t)
        if analysis.dp_read(t) is not None:
            accepted += 1
        t += 50_000  # a trigger every 50 us
    print(f"\naccepted {accepted}/100 triggers at 20k triggers/s "
          f"({analysis.tw_banks.dp_rejections} rejected by the read lock)")
    assert accepted < 100
    assert accepted >= 1
