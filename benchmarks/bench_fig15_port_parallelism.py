"""Figure 15: accuracy versus number of PrintQueue-enabled ports.

SRAM is finite, so activating more ports forces smaller per-port
configurations.  Following the paper's WS-trace experiment, the sweep
walks (ports, alpha, k): 1 port (alpha=1, k=12), 2 ports (alpha=1,
k=11), 4 and 8 ports (alpha=2, k=10), 10 ports (alpha=2, k=10), and
reports per-port SRAM utilisation next to asynchronous-query accuracy
for a port carrying the WS workload.

Accuracy is scored on a full-load port (the paper measures one
PrintQueue-enabled port carrying the workload).  Every sweep point uses
the same WS trace and the same FIFO, so the dequeue log, the ground-truth
taxonomy, the sampled victims and their direct-culprit truths are built
once; each point then drives one port with its own configuration and
scores its answers against those shared truths.  Every sweep point also
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
    workload_config,
)
from repro.core.printqueue import PrintQueue, PrintQueuePort
from repro.core.taxonomy import CulpritTaxonomy
from repro.experiments.evaluation import victim_interval
from repro.experiments.runner import drive_printqueue, measured_d_ns
from repro.experiments.sampling import sample_victims_by_band
from repro.metrics.accuracy import precision_recall, summarize_scores
from repro.metrics.overhead import sram_utilization
from repro.switch.fastpath import fifo_record_batch
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
        records, drops = fifo_record_batch(sub)
        drive_printqueue(records, pq)
        # Every packet of the partitioned trace reached its port.
        assert pq.packets_seen == len(records) == len(sub) - drops


def run_fig15():
    spec = WORKLOADS["ws"]
    # One WS trace, one FIFO pass, one ground truth for every sweep point;
    # only the per-port configuration and the partition width change.
    trace = PoissonWorkload(
        distribution_by_name("ws"),
        WorkloadConfig(load=spec["load"], duration_ns=spec["duration_ns"]),
        seed=spec["seed"],
    ).generate()
    records, _ = fifo_record_batch(trace)
    taxonomy = CulpritTaxonomy(records)
    victims = sample_victims_by_band(records, per_band=VICTIMS_PER_BAND)
    union = sorted({i for indices in victims.values() for i in indices})
    intervals = [victim_interval(records[i]) for i in union]
    truths = [taxonomy.direct(records[i]) for i in union]
    rows = []
    results = {}
    for ports, params in SWEEP:
        # Accuracy is per-port: the full-load port carries the structural
        # parameters only, the fleet carries the port count.
        port_config = workload_config("ws", **params)
        pq = PrintQueuePort(
            port_config,
            d_ns=measured_d_ns(records, port_config),
            model_dp_read_cost=False,
        )
        drive_printqueue(records, pq)
        estimates = pq.query(intervals=intervals).estimates
        summary = summarize_scores(
            [precision_recall(e, t) for e, t in zip(estimates, truths)]
        )
        config = workload_config("ws", num_ports=ports, **params)
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
