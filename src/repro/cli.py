"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run
    Generate a workload (or replay a saved .pqtrace), push it through the
    simulated bottleneck port with PrintQueue attached, and diagnose the
    worst victims — or, with ``--format summary|json|prom``, print the
    run's RunReport (collision/pass rates per window level, stale-filter
    and queue-monitor counters) instead.
scenario
    Same, for the named scenarios (microburst / incast / burst-case-study).
overhead
    Print the SRAM and control-plane bandwidth of a configuration.
trace
    Generate a workload and save it as a .pqtrace file (or inspect one).
faults
    List the built-in fault-injection profiles (``--faults`` on run/serve/store
    record runs the control plane under one of them).
store
    Snapshot-store tooling: ``record`` a run's poll stream to a PQSTORE1
    file (the run writes through an ``MmapStore``), ``inspect`` a file's
    header and record counts, and ``replay`` a file through either store
    backend, re-running the same deterministic probe queries.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.core.config import PrintQueueConfig
from repro.core.diagnosis import Diagnoser
from repro.experiments.figures import timeline
from repro.experiments.runner import simulate_workload
from repro.metrics.overhead import (
    pcie_limit_mbps,
    printqueue_storage_mbps,
    queue_monitor_sram_bytes,
    sram_utilization,
    time_windows_sram_bytes,
)
from repro.obs.metrics import Metrics
from repro.traffic import pcaplike
from repro.traffic.scenarios import (
    incast_scenario,
    microburst_scenario,
    udp_burst_case_study,
)


# Cleanup callbacks run when a command is interrupted (SIGINT/SIGTERM):
# commands register flushes here so partial state (a half-written store
# recording, collected metrics) survives the interrupt instead of dying
# with a bare traceback.  main() drains the list on KeyboardInterrupt.
_interrupt_hooks: List[Callable[[], None]] = []


def on_interrupt(hook: Callable[[], None]) -> None:
    """Register a flush/cleanup callback for SIGINT/SIGTERM."""
    _interrupt_hooks.append(hook)


def _run_interrupt_hooks() -> None:
    while _interrupt_hooks:
        hook = _interrupt_hooks.pop()
        try:
            hook()
        except Exception as exc:  # cleanup must never mask the interrupt
            print(f"interrupt cleanup failed: {exc!r}", file=sys.stderr)


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    from repro.faults import profile_names

    parser.add_argument(
        "--faults",
        choices=profile_names(),
        default="none",
        metavar="PROFILE",
        help="run the control plane under a seeded fault-injection "
        "profile (see `repro faults list`); default: none, the perfect "
        "channel",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="re-seed the fault profile's RNG (independent of the "
        "workload --seed); default: the profile's own seed",
    )


def _resolve_faults(args: argparse.Namespace):
    """The --faults/--fault-seed pair as a FaultPlan."""
    from repro.faults import profile

    plan = profile(args.faults)
    if args.fault_seed is not None:
        plan = plan.with_seed(args.fault_seed)
    return plan


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m0", type=int, default=10, help="cell-period exponent")
    parser.add_argument("--k", type=int, default=12, help="cells-per-window exponent")
    parser.add_argument("--alpha", type=int, default=1, help="compression factor")
    parser.add_argument("--T", type=int, default=4, help="number of time windows")
    parser.add_argument(
        "--min-packet", type=int, default=1500, help="min packet bytes for d"
    )


def _config_from(args: argparse.Namespace) -> PrintQueueConfig:
    return PrintQueueConfig(
        m0=args.m0,
        k=args.k,
        alpha=args.alpha,
        T=args.T,
        min_packet_bytes=args.min_packet,
    )


def _run_kwargs(args: argparse.Namespace) -> dict:
    """The shared run flags as ``build_run`` arguments (run, record, serve)."""
    return dict(
        workload=args.workload,
        duration_ns=int(args.duration_ms * 1e6),
        load=args.load,
        seed=args.seed,
        config=_config_from(args),
        faults=_resolve_faults(args),
    )


def _build_trace(args: argparse.Namespace):
    if args.scenario == "microburst":
        return microburst_scenario(seed=args.seed)
    if args.scenario == "incast":
        return incast_scenario(seed=args.seed)
    if args.scenario == "burst-case-study":
        return udp_burst_case_study(seed=args.seed).trace
    raise SystemExit(f"unknown scenario {args.scenario!r}")


def _maybe_write_report(run, args: argparse.Namespace, file=None) -> None:
    """Save the run's RunReport when ``--metrics-out`` was given."""
    out = getattr(args, "metrics_out", None)
    if out:
        run.report().save(out)
        print(f"metrics: wrote RunReport to {out}", file=file)


def cmd_run(args: argparse.Namespace) -> int:
    """Handle `repro run`: simulate a workload, then diagnose or report."""
    diagnose = args.format == "diagnosis"
    metrics = Metrics() if args.metrics_out or not diagnose else None
    if args.metrics_out:
        out = args.metrics_out

        def _flush_metrics() -> None:
            import json

            with open(out, "w") as fh:
                json.dump(
                    {"interrupted": True, "metrics": metrics.snapshot()},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
            print(f"metrics: wrote partial sample to {out}", file=sys.stderr)

        on_interrupt(_flush_metrics)
    run = simulate_workload(
        **_run_kwargs(args),
        trace=pcaplike.read_trace(args.trace) if args.trace else None,
        engine=args.engine,
        metrics=metrics,
    )
    _interrupt_hooks.clear()  # run finished; nothing partial to flush
    if args.queries > 0 and run.records:
        from repro.core.queries import QueryInterval

        victims = sorted(run.records, key=lambda r: -r.queuing_delay)
        run.pq.query(
            intervals=[
                QueryInterval.for_victim(v.enq_timestamp, v.deq_timestamp)
                for v in victims[: args.queries]
            ]
        )
    if diagnose:
        _report(run, args.victims)
        _maybe_print_faults(run)
    elif args.format == "json":
        print(run.report().to_json())
    elif args.format == "prom":
        print(run.report().to_prometheus(), end="")
    else:
        print(run.report().summary())
    # A report format owns stdout: the notice goes to stderr there.
    _maybe_write_report(run, args, file=None if diagnose else sys.stderr)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Handle `repro scenario`: run a named scenario and diagnose."""
    config = _config_from(args)
    trace = _build_trace(args)
    run = simulate_workload(
        "unused",
        1,
        config=config,
        trace=trace,
        seed=args.seed,
        metrics=Metrics() if args.metrics_out else None,
    )
    if args.plot:
        times = [r.enq_timestamp for r in run.records]
        depths = [r.enq_qdepth for r in run.records]
        print("queue depth over time:")
        print(timeline(times, depths))
    _report(run, args.victims)
    _maybe_write_report(run, args)
    return 0


def _maybe_print_faults(run) -> None:
    """One-line digest of injection + resilience on a fault-injected run."""
    pq = run.pq
    if not pq.faults.plan.enabled:
        return
    injected = sum(pq.faults.injected.values())
    log = pq.poller.log
    print(
        f"faults ({pq.faults.plan.name}, seed {pq.faults.plan.seed}): "
        f"{injected} injected; lost polls={log.lost_polls} "
        f"delayed={log.delayed_polls} retries={log.retries} "
        f"recovered={log.reads_recovered} "
        f"quarantined cells={log.quarantined_cells}"
    )


def cmd_faults(args: argparse.Namespace) -> int:
    """Handle `repro faults`: describe the built-in fault profiles."""
    from repro.faults import PROFILES, profile_names

    for name in profile_names():
        print(PROFILES[name].describe())
    return 0


def _report(run, num_victims: int) -> None:
    records = run.records
    print(
        f"{len(records)} packets forwarded; "
        f"max depth {max(r.enq_qdepth for r in records)} pkts; "
        f"{len(run.pq.analysis.tw_snapshots)} snapshots"
    )
    diagnoser = Diagnoser(run.pq)
    victims = sorted(records, key=lambda r: -r.queuing_delay)[:num_victims]
    for victim in victims:
        print()
        print(diagnoser.diagnose_record(victim).summary(top=3))


def cmd_overhead(args: argparse.Namespace) -> int:
    """Handle `repro overhead`: print SRAM and polling budgets."""
    config = _config_from(args)
    tw = time_windows_sram_bytes(config, num_ports=args.ports)
    qm = queue_monitor_sram_bytes(config, num_ports=args.ports)
    util = sram_utilization(
        config, num_ports=args.ports, include_queue_monitor=True
    )
    mbps = printqueue_storage_mbps(config)
    print(f"configuration: {config.describe()} ports={args.ports}")
    print(f"time windows SRAM : {tw / 1024:.0f} KiB")
    print(f"queue monitor SRAM: {qm / 1024:.0f} KiB")
    print(f"total utilisation : {100 * util:.2f}% of pipe budget")
    print(
        f"polling bandwidth : {mbps:.2f} MB/s "
        f"(limit {pcie_limit_mbps():.1f} MB/s -> "
        f"{'feasible' if mbps <= pcie_limit_mbps() else 'INFEASIBLE'})"
    )
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    """Handle `repro advise`: sanity-check a configuration."""
    from repro.core.advisor import advise, worst_severity

    config = _config_from(args)
    notes = advise(
        config,
        packet_interval_ns=args.packet_interval,
        expected_max_depth=args.max_depth,
        query_horizon_ns=(
            int(args.horizon_ms * 1e6) if args.horizon_ms is not None else None
        ),
    )
    print(f"configuration: {config.describe()}")
    if not notes:
        print("no findings: configuration looks sound for this workload")
        return 0
    for note in notes:
        print(f"  {note}")
    worst = worst_severity(notes)
    return 1 if worst is not None and worst.value == "error" else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Handle `repro trace`: generate or inspect .pqtrace files."""
    if args.inspect:
        trace = pcaplike.read_trace(args.path)
        print(
            f"{args.path}: {len(trace)} packets, {trace.num_flows} flows, "
            f"{trace.duration_ns / 1e6:.2f} ms, "
            f"{trace.offered_load_bps() / 1e9:.2f} Gbps offered"
        )
        return 0
    from repro.traffic.distributions import distribution_by_name
    from repro.traffic.generator import PoissonWorkload, WorkloadConfig

    workload = PoissonWorkload(
        distribution_by_name(args.workload),
        WorkloadConfig(load=args.load, duration_ns=int(args.duration_ms * 1e6)),
        seed=args.seed,
    )
    trace = workload.generate()
    count = pcaplike.write_trace(trace, args.path)
    print(f"wrote {count} records to {args.path} "
          f"({pcaplike.trace_file_bytes(count)} bytes)")
    return 0


def _probe_digest(analysis, count: int) -> List[str]:
    """Deterministic probe-query digest shared by record and replay.

    One line per probe interval (see
    :func:`repro.store.default_probe_intervals`): byte-identical output
    on both sides is the CLI-level replay-determinism check.
    """
    from repro.store import default_probe_intervals

    intervals = default_probe_intervals(analysis, count)
    if not intervals:
        return ["probe: no periodic snapshots to query"]
    estimates = analysis.query_time_windows_batch(intervals)
    lines = []
    for interval, estimate in zip(intervals, estimates):
        top = estimate.top(1)
        suffix = f" top={top[0][0]}={top[0][1]:g}" if top else ""
        lines.append(
            f"probe [{interval.start_ns},{interval.end_ns}): "
            f"total={estimate.total:g}{suffix}"
        )
    return lines


def _store_stats_line(store) -> str:
    """One-line ``stats()`` digest for record/replay output."""
    stats = store.stats()
    return (
        f"store ({stats['backend']}): version={stats['version']} "
        f"tw={stats['tw_snapshots']} qm={stats['qm_snapshots']} "
        f"evicted={stats['tw_evictions']}+{stats['qm_evictions']} "
        f"replaced={stats['quarantine_replacements']} "
        f"bytes={stats['bytes_total']}"
    )


def cmd_store(args: argparse.Namespace) -> int:
    """Handle `repro store`: record / inspect / replay PQSTORE1 files."""
    import json
    from pathlib import Path

    from repro.store import MmapStore, replay_analysis

    if args.action == "inspect":
        store = MmapStore.open(args.path)
        try:
            info = {
                "meta": store.meta,
                "bytes": Path(args.path).stat().st_size,
                "records": store.replay_position,
                "tw_records": store.tw_added,
                "qm_records": store.qm_added,
                "replace_records": store.quarantine_replacements,
                "stats": store.stats(),
            }
        finally:
            store.close()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        meta = info["meta"]
        config = meta.get("config", {})
        described = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
        print(f"{args.path}: {info['bytes']} bytes, {info['records']} records")
        print(
            f"  tw adds={info['tw_records']} qm adds={info['qm_records']} "
            f"replacements={info['replace_records']}"
        )
        print(f"  config: {described}")
        print(f"  retention: {meta.get('retention')}")
        return 0

    if args.action == "record":
        store = MmapStore(args.path)
        # An interrupt mid-run still leaves a valid prefix of the file.
        on_interrupt(store.flush)
        run = simulate_workload(**_run_kwargs(args), store=store)
        _interrupt_hooks.clear()
        for line in _probe_digest(run.pq.analysis, args.queries):
            print(line)
        print(_store_stats_line(store))
        store.close()
        print(f"recorded {len(run.records)} packets' poll stream to {args.path}")
        return 0

    # replay
    analysis = replay_analysis(args.path, backend=args.backend)
    for line in _probe_digest(analysis, args.queries):
        print(line)
    print(_store_stats_line(analysis.store))
    print(
        f"replayed {analysis.store.replay_position} records from "
        f"{args.path} into the {args.backend} backend"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle `repro serve`: run the always-on diagnosis service.

    Live ingest of the configured workload runs concurrently with query
    serving on a local socket until SIGINT/SIGTERM (or ``--duration-s``)
    stops it; shutdown is graceful — in-flight queries drain against the
    deadline, the store flushes, and the exit code is 0.
    """
    import asyncio
    import json
    import signal

    from repro.service import DiagnosisService, ServiceConfig

    run_kwargs = _run_kwargs(args)
    config = ServiceConfig(
        pq_config=run_kwargs.pop("config"),
        **run_kwargs,
        port=args.port,
        max_pending=args.max_pending,
        rate_limit_qps=args.rate_limit_qps,
    )
    service = DiagnosisService(config=config)

    async def _serve() -> None:
        host, port = await service.start()
        print(f"serving on {host}:{port}", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as fh:
                fh.write(f"{host} {port}\n")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        if args.duration_s is not None:
            try:
                await asyncio.wait_for(stop.wait(), timeout=args.duration_s)
            except asyncio.TimeoutError:
                pass
        else:
            await stop.wait()
        print("shutting down: draining in-flight queries", flush=True)
        await service.shutdown()

    asyncio.run(_serve())
    status = service.status()
    print(json.dumps(status, indent=2, sort_keys=True))
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(
                {"status": status, "metrics": service.metrics.snapshot()},
                fh,
                indent=2,
                sort_keys=True,
            )
        print(f"metrics: wrote service report to {args.metrics_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PrintQueue reproduction: queue-measurement diagnosis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="simulate a workload and diagnose victims (or report)"
    )
    run.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="optional .pqtrace file to replay (default: generate --workload)",
    )
    run.add_argument("--workload", choices=["ws", "dm", "uw"], default="ws")
    run.add_argument("--duration-ms", type=float, default=40.0)
    run.add_argument("--load", type=float, default=1.2)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--victims", type=int, default=1)
    run.add_argument(
        "--engine",
        choices=["fused", "scalar"],
        default="fused",
        help="ingest engine: the production record-array pipeline or the "
        "scalar reference (byte-identical diagnoses, counter-identical reports)",
    )
    run.add_argument(
        "--format",
        choices=["diagnosis", "summary", "json", "prom"],
        default="diagnosis",
        help="print the victims' diagnoses (default), or the run's "
        "RunReport as a human summary, JSON, or Prometheus text",
    )
    run.add_argument(
        "--queries",
        type=int,
        default=0,
        metavar="N",
        help="batch-query the N worst victims before reporting, so the "
        "report includes query/plan-cache activity",
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="save a JSON RunReport of the run to PATH",
    )
    _add_faults_arg(run)
    _add_config_args(run)
    run.set_defaults(func=cmd_run)

    scenario = sub.add_parser("scenario", help="run a named scenario")
    scenario.add_argument(
        "scenario", choices=["microburst", "incast", "burst-case-study"]
    )
    scenario.add_argument("--seed", type=int, default=1)
    scenario.add_argument("--victims", type=int, default=1)
    scenario.add_argument("--plot", action="store_true")
    scenario.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="save a JSON RunReport of the run to PATH",
    )
    _add_config_args(scenario)
    scenario.set_defaults(func=cmd_scenario)

    overhead = sub.add_parser("overhead", help="SRAM / bandwidth of a config")
    overhead.add_argument("--ports", type=int, default=1)
    _add_config_args(overhead)
    overhead.set_defaults(func=cmd_overhead)

    advise_cmd = sub.add_parser(
        "advise", help="sanity-check a configuration against a workload"
    )
    advise_cmd.add_argument(
        "--packet-interval",
        type=float,
        default=None,
        help="mean inter-departure time under congestion, ns",
    )
    advise_cmd.add_argument("--max-depth", type=int, default=None)
    advise_cmd.add_argument("--horizon-ms", type=float, default=None)
    _add_config_args(advise_cmd)
    advise_cmd.set_defaults(func=cmd_advise)

    faults = sub.add_parser(
        "faults", help="describe the built-in fault-injection profiles"
    )
    faults.add_argument(
        "action",
        nargs="?",
        choices=["list"],
        default="list",
        help="what to do (only `list` for now)",
    )
    faults.set_defaults(func=cmd_faults)

    trace = sub.add_parser("trace", help="generate or inspect .pqtrace files")
    trace.add_argument("path")
    trace.add_argument("--inspect", action="store_true")
    trace.add_argument("--workload", choices=["ws", "dm", "uw"], default="ws")
    trace.add_argument("--duration-ms", type=float, default=10.0)
    trace.add_argument("--load", type=float, default=1.0)
    trace.add_argument("--seed", type=int, default=1)
    trace.set_defaults(func=cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the always-on diagnosis service (live ingest + query "
        "serving over a local socket)",
    )
    serve.add_argument("--workload", choices=["ws", "dm", "uw"], default="ws")
    serve.add_argument("--duration-ms", type=float, default=50.0,
                       help="length of the live workload the ingest task replays")
    serve.add_argument("--load", type=float, default=1.2)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port on 127.0.0.1 (default 0 = ephemeral)",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write `host port` to PATH once the socket is bound",
    )
    serve.add_argument(
        "--duration-s",
        type=float,
        default=None,
        metavar="S",
        help="auto-stop after S seconds (default: run until SIGINT/SIGTERM)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="bounded request-queue depth (admission control)",
    )
    serve.add_argument(
        "--rate-limit-qps",
        type=float,
        default=0.0,
        help="token-bucket sustained rate; 0 disables rate limiting",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="save the final service status + metrics snapshot to PATH",
    )
    _add_faults_arg(serve)
    _add_config_args(serve)
    serve.set_defaults(func=cmd_serve)

    store = sub.add_parser(
        "store", help="record, inspect, and replay PQSTORE1 snapshot files"
    )
    store_sub = store.add_subparsers(dest="action", required=True)

    inspect = store_sub.add_parser(
        "inspect", help="print a recording's header metadata and record counts"
    )
    inspect.add_argument("path", help="recording file (.pqstore)")
    inspect.add_argument(
        "--json",
        action="store_true",
        help="emit JSON (meta + counts + the reopened store's stats; feed "
        "to tools/lint_report.py --store-json)",
    )
    inspect.set_defaults(func=cmd_store)

    record = store_sub.add_parser(
        "record",
        help="run a workload writing its poll stream to PATH (an MmapStore)",
    )
    record.add_argument("path", help="recording file to write (.pqstore)")
    record.add_argument("--workload", choices=["ws", "dm", "uw"], default="ws")
    record.add_argument("--duration-ms", type=float, default=10.0)
    record.add_argument("--load", type=float, default=1.2)
    record.add_argument("--seed", type=int, default=1)
    record.add_argument(
        "--queries",
        type=int,
        default=4,
        metavar="N",
        help="probe-query the last N periodic snapshots and print the "
        "digest (replay prints the identical lines)",
    )
    _add_faults_arg(record)
    _add_config_args(record)
    record.set_defaults(func=cmd_store)

    replay = store_sub.add_parser(
        "replay",
        help="rebuild a recorded run in either backend and re-run its probes",
    )
    replay.add_argument("path", help="recording file (.pqstore)")
    replay.add_argument(
        "--backend",
        choices=["memory", "mmap"],
        default="memory",
        help="store backend to replay into (default: memory)",
    )
    replay.add_argument(
        "--queries",
        type=int,
        default=4,
        metavar="N",
        help="probe-query the last N periodic snapshots (match against "
        "the record-side digest)",
    )
    replay.set_defaults(func=cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    SIGTERM is mapped onto ``KeyboardInterrupt`` so both interrupt paths
    behave the same: registered cleanup hooks flush partial state (store
    recordings, metrics samples), a one-line notice goes to stderr, and
    the exit code is 130 — never a bare traceback.  (``repro serve``
    installs its own asyncio signal handlers for graceful drain and
    exits 0 instead.)
    """
    import signal

    parser = build_parser()
    args = parser.parse_args(argv)

    def _sigterm(_signum: int, _frame: object) -> None:
        raise KeyboardInterrupt

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:
        pass  # not the main thread (embedded use): keep existing handler
    try:
        return args.func(args)
    except KeyboardInterrupt:
        _run_interrupt_hooks()
        print("interrupted: partial state flushed", file=sys.stderr)
        return 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
