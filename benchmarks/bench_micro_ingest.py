"""Micro-benchmark: the oracle against the production ingest path.

Replays one ~1M-packet UW dequeue log through
:func:`repro.experiments.runner.drive_printqueue` twice per
configuration:

* ``scalar`` — the per-event reference loop (the oracle),
* ``fused`` — the production path (:class:`repro.engine.IngestPipeline`),
  which consumes the structured
  :class:`~repro.switch.records.RecordBatch` the FIFO fast path emits and
  never materialises per-packet Python objects.

Oracle and production are bit-identical (asserted here on the
instrumentation counters and the full RunReport deterministic view, and
cell-for-cell by ``tests/test_fused_ingest.py``), so the speedup is pure
engine overhead reduction.

Each rate is reported in Mpps (dequeued packets / best-of-N wall-clock
seconds / 1e6) and persisted to ``benchmarks/BENCH_ingest.json`` the same
way the batch query engine tracks QPS in ``BENCH_query.json``.  Timing
covers ingest only: the dequeue log (object list for the oracle, record
array for production) is built once outside the timed region, since both
are what the switch layer hands the engine
(:func:`run_trace_through_fifo` / :func:`fifo_record_batch`).

At full scale (``REPRO_SCALE=1``) production must ingest at least 6x
faster than the oracle on the primary configuration (4x on the paper's
UW configuration); scaled-down smoke runs only sanity-check the ordering.
The effective core count is persisted next to the rates so regressions
are judged against comparable hardware.
"""

import json
import os
import time


from common import SCALE, print_table
from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.experiments.runner import drive_printqueue, run_trace_through_fifo
from repro.obs.metrics import Metrics
from repro.obs.report import RunReport
from repro.switch.fastpath import fifo_record_batch
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig

#: ~1.04M dequeued packets at load 1.2 over the UW size distribution.
FULL_DURATION_NS = 90_000_000
FULL_TRACE_PACKETS = 1_000_000

CONFIGS = {
    # Wide-window configuration: large batches, the engine's sweet spot.
    "m0=12 k=12": PrintQueueConfig(m0=12, k=12, alpha=2, T=4),
    # The paper's UW configuration (Section 7.1).
    "m0=6 k=12 (UW)": PrintQueueConfig(m0=6, k=12, alpha=2, T=4),
}

#: Full-scale production-vs-oracle speedup floors per configuration on
#: a 1M-packet trace; at reduced REPRO_SCALE only a no-regression floor.
FULL_SCALE_FLOOR = {"m0=12 k=12": 6.0, "m0=6 k=12 (UW)": 4.0}
SMOKE_FLOOR = 1.1

BENCH_INGEST_PATH = os.path.join(os.path.dirname(__file__), "BENCH_ingest.json")


def _effective_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _inputs():
    """One trace, two dequeue-log representations (objects + records)."""
    workload = PoissonWorkload(
        distribution_by_name("uw"),
        WorkloadConfig(load=1.2, duration_ns=int(FULL_DURATION_NS * SCALE)),
        seed=7,
    )
    trace = workload.generate()
    records, _ = run_trace_through_fifo(trace)
    batch, _ = fifo_record_batch(trace)
    assert len(batch) == len(records)
    return records, batch


def _ingest_counters(pq: PrintQueuePort):
    bank = pq.analysis.tw_banks.active
    return (
        pq.packets_seen,
        bank.updates,
        bank.passes,
        bank.drops,
        pq.analysis.queue_monitor._seq,
        pq.analysis.queue_monitor.top,
    )


def _time_engine(records, config, engine, repeats):
    # Metrics stay attached while timing: the speedup floors below double
    # as the observability layer's overhead budget.
    best = float("inf")
    counters = None
    view = None
    for _ in range(repeats):
        pq = PrintQueuePort(
            config, d_ns=100.0, model_dp_read_cost=False, metrics=Metrics()
        )
        start = time.perf_counter()
        drive_printqueue(records, pq, engine=engine)
        best = min(best, time.perf_counter() - start)
        counters = _ingest_counters(pq)
        view = RunReport.from_port(pq).deterministic_view()
    return best, counters, view


def test_micro_ingest_speedup():
    records, batch = _inputs()
    n = len(records)
    full_scale = n >= FULL_TRACE_PACKETS
    # Best-of-2 at full scale: a single 1M-packet pass is long enough to
    # catch a scheduler hiccup on shared CI boxes, and one bad sample
    # against a ratio floor is a flake, not a regression signal.
    repeats = 2 if full_scale else 3
    rows = []
    speedups = {}
    bench_configs = {}
    for name, config in CONFIGS.items():
        scalar_s, scalar_counters, scalar_view = _time_engine(
            records, config, "scalar", repeats
        )
        fused_s, fused_counters, fused_view = _time_engine(
            batch, config, "fused", repeats
        )
        # Both must leave identical instrumentation behind — the quick
        # counter tuple and the full RunReport deterministic view.
        assert fused_counters == scalar_counters
        assert fused_view == scalar_view
        speedups[name] = scalar_s / fused_s
        bench_configs[name] = {
            "scalar_s": round(scalar_s, 6),
            "fused_s": round(fused_s, 6),
            "scalar_mpps": round(n / scalar_s / 1e6, 4),
            "fused_mpps": round(n / fused_s / 1e6, 4),
            "fused_speedup": round(speedups[name], 2),
        }
        rows.append(
            (
                name,
                n,
                f"{n / scalar_s / 1e6:.3f}",
                f"{n / fused_s / 1e6:.3f}",
                f"{speedups[name]:.2f}x",
            )
        )
    record = {
        "scale": SCALE,
        "packets": n,
        "cores": _effective_cores(),
        "configs": bench_configs,
    }
    with open(BENCH_INGEST_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print_table(
        "Micro: ingest (Mpps; speedup production/oracle)",
        ["config", "packets", "scalar Mpps", "fused Mpps", "speedup"],
        rows,
    )
    for name, speedup in speedups.items():
        floor = FULL_SCALE_FLOOR[name] if full_scale else SMOKE_FLOOR
        assert speedup >= floor, (
            f"{name}: ingest speedup {speedup:.2f}x below the "
            f"{floor:.1f}x floor ({'full' if full_scale else 'smoke'} scale)"
        )
