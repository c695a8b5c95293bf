#!/usr/bin/env python
"""profile_ingest — where do the ingest nanoseconds go?

Usage::

    PYTHONPATH=src python tools/profile_ingest.py
    PYTHONPATH=src python tools/profile_ingest.py --engine fused \
        --workload uw --duration-ms 26 --m0 6 --k 12 --alpha 2
    PYTHONPATH=src python tools/profile_ingest.py --json

Runs one workload through the chosen ingest engine with a metrics
registry attached and prints the per-stage timing breakdown from the
``pq_ingest_stage_*`` histograms:

* ``generate`` — trace synthesis (Poisson workload → arrivals);
* ``fifo``     — the vectorised FIFO pass (arrivals → dequeue records);
* ``qm_write_back`` — ``QueueMonitor.apply_batch`` register write-back;
* ``absorb``   — the time-window absorb/pass kernel;
* ``filter``   — Algorithm-3 stale-cell filtering at each poll;
* ``encode``   — snapshot-store encode (``add_tw``/``add_qm``).

``generate`` and ``fifo`` are harness stages, timed against their own
wall and reported as shares of the generate + fifo + drive total (the
part of the pipeline in front of the store), so the table itself says
which of the three is first in the way.  The ingest stages are reported
as percentages of the *drive* wall
(records → finished port, the same span the Mpps bench times), with the
unattributed remainder (event-stream merge, batch slicing, poll
bookkeeping) as ``other`` — so the drive section always accounts for
100% of ingest.  ``peak_rss_mb`` is the process's ``ru_maxrss`` after
the drive (generation, FIFO, port and stored snapshots included).
This is the measurement loop behind the ROADMAP
raw-speed item: shave the top stage, re-run, repeat.  Stage timings are
observability-only — the run's deterministic state is identical with or
without them (the equivalence suite asserts it).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional

#: Harness stages (their own wall) and drive stages (% of ingest wall).
HARNESS_STAGES = ("generate", "fifo")
DRIVE_STAGES = ("qm_write_back", "absorb", "filter", "encode")


def _stage_row(
    metrics: object, stage: str, wall_ns: Optional[int]
) -> Dict[str, object]:
    hist = metrics.find(f"pq_ingest_stage_{stage}_ns")  # type: ignore[attr-defined]
    count = hist.count if hist is not None else 0
    total = hist.sum if hist is not None else 0
    return {
        "stage": stage,
        "calls": count,
        "total_ms": total / 1e6,
        "mean_us": (total / count / 1e3) if count else 0.0,
        "pct_drive": (100.0 * total / wall_ns) if wall_ns else None,
    }


def profile_run(
    workload: str,
    duration_ms: float,
    load: float,
    seed: int,
    engine: str,
    config_args: Dict[str, int],
) -> Dict[str, object]:
    """One measured run; returns the stage table as a JSON-ready dict."""
    from repro.core.config import PrintQueueConfig
    from repro.experiments.runner import build_run, drive_printqueue
    from repro.obs.metrics import Metrics

    config = PrintQueueConfig(**config_args)
    metrics = Metrics()
    _trace, records, _drops, pq = build_run(
        workload,
        int(duration_ms * 1e6),
        load,
        config,
        seed,
        engine=engine,
        metrics=metrics,
    )
    generate_ns = metrics.find("pq_ingest_stage_generate_ns").sum
    fifo_ns = metrics.find("pq_ingest_stage_fifo_ns").sum

    t0 = perf_counter_ns()
    drive_printqueue(records, pq, engine=engine)
    drive_ns = perf_counter_ns() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stages = [_stage_row(metrics, s, None) for s in HARNESS_STAGES]
    accounted = 0
    for stage in DRIVE_STAGES:
        row = _stage_row(metrics, stage, drive_ns)
        accounted += int(row["total_ms"] * 1e6)  # type: ignore[operator]
        stages.append(row)
    other = max(0, drive_ns - accounted)
    stages.append(
        {
            "stage": "other (merge/slice/poll)",
            "calls": 0,
            "total_ms": other / 1e6,
            "mean_us": 0.0,
            "pct_drive": 100.0 * other / drive_ns if drive_ns else None,
        }
    )
    packets = len(records)
    pipeline_ns = generate_ns + fifo_ns + drive_ns
    return {
        "engine": engine,
        "workload": workload,
        "config": config.describe(),
        "packets": packets,
        "drive_ms": drive_ns / 1e6,
        "mpps": packets / (drive_ns / 1e9) / 1e6 if drive_ns else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "pipeline_ms": pipeline_ns / 1e6,
        "pipeline_share_pct": {
            "generate": 100.0 * generate_ns / pipeline_ns,
            "fifo": 100.0 * fifo_ns / pipeline_ns,
            "drive": 100.0 * drive_ns / pipeline_ns,
        },
        "stages": stages,
    }


def render(result: Dict[str, object]) -> str:
    lines = [
        f"engine={result['engine']} workload={result['workload']} "
        f"config=[{result['config']}]",
        f"{result['packets']:,} packets driven in {result['drive_ms']:.1f} ms "
        f"({result['mpps']:.3f} Mpps ingest), peak RSS "
        f"{result['peak_rss_mb']:.1f} MB",
        f"generate + fifo + drive = {result['pipeline_ms']:.1f} ms: "
        + ", ".join(
            f"{stage} {pct:.1f}%"
            for stage, pct in result["pipeline_share_pct"].items()  # type: ignore[union-attr]
        ),
        "",
        f"{'stage':<24} {'calls':>8} {'total ms':>10} {'mean us':>10} "
        f"{'% drive':>8}",
        "-" * 64,
    ]
    for row in result["stages"]:  # type: ignore[union-attr]
        pct = row["pct_drive"]
        pct_s = f"{pct:>7.1f}%" if pct is not None else "       -"
        lines.append(
            f"{row['stage']:<24} {row['calls']:>8} {row['total_ms']:>10.2f} "
            f"{row['mean_us']:>10.2f} {pct_s}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="per-stage ingest timing breakdown (pq_ingest_stage_*)"
    )
    parser.add_argument("--workload", choices=["ws", "dm", "uw"], default="uw")
    parser.add_argument("--duration-ms", type=float, default=26.0)
    parser.add_argument("--load", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--engine",
        choices=["fused", "scalar"],
        default="fused",
    )
    parser.add_argument("--m0", type=int, default=6)
    parser.add_argument("--k", type=int, default=12)
    parser.add_argument("--alpha", type=int, default=2)
    parser.add_argument("--T", type=int, default=4)
    parser.add_argument(
        "--min-packet", type=int, default=64, dest="min_packet_bytes"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)

    result = profile_run(
        args.workload,
        args.duration_ms,
        args.load,
        args.seed,
        args.engine,
        {
            "m0": args.m0,
            "k": args.k,
            "alpha": args.alpha,
            "T": args.T,
            "min_packet_bytes": args.min_packet_bytes,
        },
    )
    print(json.dumps(result, indent=2) if args.json else render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
