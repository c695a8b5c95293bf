"""Figure 15: accuracy versus number of PrintQueue-enabled ports.

SRAM is finite, so activating more ports forces smaller per-port
configurations.  Following the paper's WS-trace experiment, the sweep
walks (ports, alpha, k): 1 port (alpha=1, k=12), 2 ports (alpha=1,
k=11), 4 and 8 ports (alpha=2, k=10), 10 ports (alpha=2, k=10), and
reports per-port SRAM utilisation next to asynchronous-query accuracy
for a port carrying the WS workload.

Accuracy is scored on a full-load port (the paper measures one
PrintQueue-enabled port carrying the workload).  Every sweep point also
partitions the WS trace by egress port (paper Section 6's register
partitioning) and drives the ports one after another — ports share
nothing, so a fleet is a loop — asserting every packet of the
partitioned trace reached its port.

Paper shape to match: accuracy degrades gracefully as per-port resources
shrink; total SRAM stays within the budget through rounding to
r(#ports); around 10 ports the configuration reaches the practical
limit.
"""

from common import (
    VICTIMS_PER_BAND,
    WORKLOADS,
    fmt,
    print_table,
    sweep,
    workload_config,
)
from repro.core.printqueue import PrintQueue
from repro.engine import SweepCell
from repro.experiments.runner import drive_printqueue, run_trace_through_fifo_batch
from repro.metrics.overhead import sram_utilization
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.traffic.trace import partition_trace_by_port

SWEEP = [
    (1, dict(alpha=1, k=12)),
    (2, dict(alpha=1, k=11)),
    (4, dict(alpha=2, k=10)),
    (8, dict(alpha=2, k=10)),
    (10, dict(alpha=2, k=10)),
]


def _drive_fleet(trace, ports, config):
    """Partition `trace` over `ports` egress ports and drive each in turn."""
    fleet = PrintQueue(config, port_ids=range(ports))
    subs = partition_trace_by_port(trace, ports)
    assert sum(len(sub) for sub in subs) == len(trace)
    for pq, sub in zip(fleet.ports.values(), subs):
        records, drops = run_trace_through_fifo_batch(sub)
        drive_printqueue(records, pq)
        # Every packet of the partitioned trace reached its port.
        assert pq.packets_seen == len(records) == len(sub) - drops


def run_fig15():
    spec = WORKLOADS["ws"]
    # Accuracy is per-port and independent of num_ports, so every cell
    # keys on the structural parameters only (port=0): the sweep pool
    # dedups the configurations shared between port counts and fans the
    # distinct ones over worker processes.
    cells = [
        SweepCell(
            workload="ws",
            config=workload_config("ws", **params),
            duration_ns=spec["duration_ns"],
            load=spec["load"],
            seed=spec["seed"],
            victims_per_band=VICTIMS_PER_BAND,
        )
        for _, params in SWEEP
    ]
    outcomes = sweep(cells)
    # One WS trace shared by every fleet drive; only the partition width
    # and the per-port configuration change across sweep points.
    trace = PoissonWorkload(
        distribution_by_name("ws"),
        WorkloadConfig(load=spec["load"], duration_ns=spec["duration_ns"]),
        seed=spec["seed"],
    ).generate()
    rows = []
    results = {}
    for (ports, params), outcome in zip(SWEEP, outcomes):
        config = workload_config("ws", num_ports=ports, **params)
        summary = outcome.accuracy
        sram_pct = 100 * sram_utilization(config)
        _drive_fleet(trace, ports, config)
        rows.append(
            (
                ports,
                f"alpha={params['alpha']} k={params['k']}",
                f"{sram_pct:.2f}%",
                fmt(summary["mean_precision"]),
                fmt(summary["mean_recall"]),
            )
        )
        results[ports] = (sram_pct, summary)
    return rows, results


def test_fig15_port_parallelism(benchmark):
    rows, results = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    print_table(
        "Figure 15 (WS): accuracy and SRAM vs port count",
        ["ports", "per-port config", "total SRAM", "precision", "recall"],
        rows,
    )
    # Shape: the single-port configuration is the most accurate; the
    # 10-port configuration still achieves usable accuracy (> 0.5) while
    # total SRAM stays under the pipe budget.
    assert results[1][1]["mean_recall"] >= results[10][1]["mean_recall"] - 0.02
    assert results[10][1]["mean_precision"] > 0.5
    assert all(pct < 100 for pct, _ in results.values())
