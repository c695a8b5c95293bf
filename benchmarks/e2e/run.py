"""The end-to-end benchmark: packet generation to a served answer, one ledger.

Two ways to call it, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--out FILE] [--trace-out FILE]

The first form is one *run*: one workload, one seed, in this interpreter.
It sets up (several times, in fresh child interpreters, to report a
median ``setup_s``), repeats full passes - each over its own trace drawn
from the seed - for about ``--seconds`` (never fewer than three), verifies
the answers, and prints every metric by name with its unit.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, taken from
untraced passes only; with ``--trace 1`` the per-layer metrics, taken
from extra traced passes (spans around each public call plus the
``pq_ingest_stage_*`` histograms).

The second form is the ledger: every workload of ``BENCHMARK.json``,
untraced then traced, each in a fresh interpreter, merged into one
record (``--out``; the committed baseline is ``BENCH_e2e.json``) that
``compare.py`` reads.

``BENCHMARK.json`` at the repo root is the single list of workload and
metric names, units, directions and bounds; this file emits exactly
those names and refuses to report if it cannot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

_T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKDIR = HERE / ".work"

DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPS = 3


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def stamp() -> Dict[str, Any]:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# -- one run ---------------------------------------------------------------


def set_up(workload: str) -> Any:
    """Imports, object construction and a 2 ms warm pass; returns the module."""
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workloads.warm_up(workloads.SPECS[workload])
    return workloads


def time_setups(workload: str) -> List[float]:
    """Wall of SETUP_REPS fresh interpreters that only set up."""
    walls = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - start)
    return walls


def check_counts(counts: Dict[str, int], workload: str, seed: int, tally: Any) -> None:
    """Trace 0's deterministic counts are pinned for the default seed."""
    with open(HERE / "pinned.json") as fh:
        pinned = json.load(fh)
    same_build = all(
        pinned["stamp"].get(k) == v for k, v in stamp().items() if k != "cores"
    )
    if seed == pinned["seed"] and same_build:
        tally.check(
            counts == pinned["counts"][workload], f"counts match pinned.json: {counts}"
        )


def run_workload(args: argparse.Namespace) -> int:
    from spans import NO_TRACE, Tracer
    from statistics import median

    from stats import supported_percentile

    spec_doc = load_spec()
    names = [w["name"] for w in spec_doc["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    workloads = set_up(args.workload)
    setup_self = time.perf_counter() - _T_START
    setup_walls = time_setups(args.workload)

    spec = workloads.SPECS[args.workload]
    runner = workloads.RUNNERS[spec.kind]
    tally = workloads.Tally()

    def one_pass(index: int, tracer: Any = NO_TRACE, verify: bool = False) -> Any:
        seed = workloads.trace_seed(args.seed, index)
        return runner(spec, seed, tracer, str(WORKDIR), tally, verify)

    # The first pass sizes the rest: passes are whole, so the run measures
    # for the number of them that fits --seconds (at least MIN_PASSES).
    # Trace 0 goes last and is the one verified, so that peak RSS is read
    # after the final timed pass and before any checking.
    started = time.perf_counter()
    untraced = [one_pass(1)]
    planned = max(MIN_PASSES, int(args.seconds // (time.perf_counter() - started)))
    traced_count = max(1, planned // 2) if args.trace else 0
    for index in range(2, planned - traced_count):
        untraced.append(one_pass(index))
    untraced.append(one_pass(0, verify=True))
    verified = untraced[-1]
    #: the trace index each untraced pass ran, in pass order.
    trace_order = [*range(1, len(untraced)), 0]
    tracers = [
        Tracer(f"{args.workload}/seed{args.seed}/trace{index}")
        for index in range(traced_count)
    ]
    traced = [one_pass(index, tracer) for index, tracer in enumerate(tracers)]

    counts = verified.counts
    check_counts(counts, args.workload, args.seed, tally)
    if traced:
        tally.check(traced[0].counts == counts, "trace 0's counts repeat pass to pass")
    precision, recall = verified.accuracy

    values: Dict[str, float]
    per_pass: Dict[str, List[float]] = {}
    if not args.trace:
        per_pass = {
            name: [p.e2e[name] for p in untraced] for name in untraced[0].e2e
        }
        per_pass["setup_s"] = setup_walls
        values = {name: median(series) for name, series in per_pass.items()}
        values["direct_precision"] = precision
        values["direct_recall"] = recall
        # read after the last timed pass and before it was verified.
        values["peak_rss_mb"] = verified.rss_mb
        wanted = spec_doc["end_to_end"]
    else:
        # Timings are medians over the traced passes; counts and sizes
        # describe trace 0 alone, so they repeat exactly for one seed.
        exact = {
            m["name"]
            for m in spec_doc["per_layer"]
            if m["unit"] in ("count", "B") or m["name"] == "core.pass_ratio"
        }
        values = {
            name: traced[0].layer[name]
            if name in exact
            else median([p.layer[name] for p in traced])
            for name in traced[0].layer
        }
        pooled = {
            key: [ms for p in untraced + traced for ms in p.samples.get(key, [])]
            for key in ("single_ms", "qm_ms", "live_ms", "drained_ms", "ping_ms")
        }
        tails = {
            "queryplan.single_p99_ms": ("single_ms", 0.99),
            "queryplan.qm_p50_ms": ("qm_ms", 0.5),
            "service.ping_p50_ms": ("ping_ms", 0.5),
            "service.drained_p99_ms": ("drained_ms", 0.99),
            "service.live_p90_ms": ("live_ms", 0.9),
        }
        for name, (key, q) in tails.items():
            if pooled[key]:
                values[name], used = supported_percentile(pooled[key], q)
                if used != q:
                    print(
                        f"note: {name} reports p{used * 100:.1f}: "
                        f"{len(pooled[key])} samples cannot support p{q * 100:g}"
                    )
        values["service.live_samples"] = len(pooled["live_ms"])
        # Pass cost differs between traces, so overhead is judged on the
        # traces that ran both ways (0 always did).
        plain = dict(zip(trace_order, untraced))
        values["obs.trace_overhead_frac"] = median(
            [
                (p.wall_s - plain[index].wall_s) / plain[index].wall_s
                for index, p in enumerate(traced)
                if index in plain
            ]
        )
        wanted = spec_doc["per_layer"]

    # A layer that is not on this workload's path did no work: 0.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    unknown = set(values) - set(metrics)
    if unknown or (not args.trace and len(values) != len(metrics)):
        print(f"metric names disagree with BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 3

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(untraced)}+{len(traced)} packets={counts['traffic.packets']} "
        f"setup(this process)={setup_self:.3f}s "
        f"total={time.perf_counter() - _T_START:.1f}s"
    )
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if traced:
        ledger = traced[len(traced) // 2].ledger
        print(f"# ledger of one traced pass: wall {ledger.wall_s:.4f} s")
        for layer, seconds in sorted(ledger.by_layer().items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:12s} {seconds:9.4f} s {seconds / ledger.wall_s:6.1%}")
        print(
            f"#   {'unattributed':12s} {ledger.unattributed_s:9.4f} s "
            f"{ledger.unattributed_frac:6.1%}"
        )
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")

    correct = tally.failed == 0
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "stamp": stamp(),
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "reasons": tally.reasons,
            "counts": counts,
            "traces": trace_order,
            "metrics": {
                name: dict(metric, passes=per_pass.get(name, []))
                for name, metric in metrics.items()
            },
        }
        if traced:
            record["ledger"] = {
                "wall_s": ledger.wall_s,
                "by_name": ledger.by_name,
                "unattributed_s": ledger.unattributed_s,
            }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if args.trace_out and tracers:
        Path(args.trace_out).write_text(
            json.dumps([span for t in tracers for span in t.dump()]) + "\n"
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# -- the whole ledger --------------------------------------------------------


def run_ledger(args: argparse.Namespace) -> int:
    spec_doc = load_spec()
    WORKDIR.mkdir(exist_ok=True)
    document: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds or spec_doc["run_seconds"],
        "stamp": stamp(),
        "end_to_end": spec_doc["end_to_end"],
        "workloads": {},
    }
    spans: Dict[str, Any] = {}
    failed = False
    for workload in (w["name"] for w in spec_doc["workloads"]):
        entry: Dict[str, Any] = {"attempted": 0, "failed": 0}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = WORKDIR / f"ledger-{os.getpid()}-{workload}-{trace}.json"
            trace_out = WORKDIR / f"spans-{os.getpid()}-{workload}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(document["seconds"]),
                "--trace", str(trace),
                "--out", str(out),
            ]  # fmt: skip
            if trace and args.trace_out:
                command += ["--trace-out", str(trace_out)]
            subprocess.run(command, check=True)
            record = json.loads(out.read_text())
            out.unlink()
            entry[section] = record["metrics"]
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            entry["counts"] = record["counts"]
            entry["traces"] = record["traces"]
            if trace:
                entry["ledger"] = record["ledger"]
                if args.trace_out:
                    spans[workload] = json.loads(trace_out.read_text())
                    trace_out.unlink()
            failed = failed or not record["correct"]
        document["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(spans) + "\n")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring time per run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the detailed record here")
    parser.add_argument("--trace-out", help="write the traced passes' spans here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        set_up(args.workload)
        return 0
    if args.workload is None:
        return run_ledger(args)
    if not args.seconds:
        args.seconds = float(load_spec()["run_seconds"])
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
