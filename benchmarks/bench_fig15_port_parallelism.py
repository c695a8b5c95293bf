"""Figure 15: accuracy versus number of PrintQueue-enabled ports.

SRAM is finite, so activating more ports forces smaller per-port
configurations.  Following the paper's WS-trace experiment, the sweep
walks (ports, alpha, k): 1 port (alpha=1, k=12), 2 ports (alpha=1,
k=11), 4 and 8 ports (alpha=2, k=10), 10 ports (alpha=2, k=10), and
reports per-port SRAM utilisation next to asynchronous-query accuracy
for a port carrying the WS workload.

Accuracy is scored on a full-load port (the paper measures one
PrintQueue-enabled port carrying the workload).  Every sweep point uses
the WS ground truth the other figures share (one trace, one FIFO log,
one taxonomy, one set of sampled victims and direct-culprit truths);
each point scores the answers of a port with its own configuration
against those truths.  Every sweep point also
partitions the WS trace by egress port (paper Section 6's register
partitioning) and drives the ports one after another — ports share
nothing, so a fleet is a loop — asserting every packet of the
partitioned trace reached its port.

Paper shape to match: accuracy degrades gracefully as per-port resources
shrink; total SRAM stays within the budget through rounding to
r(#ports); around 10 ports the configuration reaches the practical
limit.
"""

from common import fmt, ground_truth, port, print_table, workload_config
from repro.core.printqueue import PrintQueue
from repro.experiments.runner import drive_printqueue
from repro.metrics.accuracy import summarize_scores
from repro.metrics.overhead import sram_utilization
from repro.switch.fastpath import fifo_record_batch
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
    # One WS ground truth for every sweep point; only the per-port
    # configuration and the partition width change.
    truth = ground_truth("ws")
    rows = []
    results = {}
    for ports, params in SWEEP:
        # Accuracy is per-port: the full-load port carries the structural
        # parameters only, the fleet carries the port count.
        pq, _ = port("ws", workload_config("ws", **params))
        summary = summarize_scores(truth.score_async(pq, truth.union))
        config = workload_config("ws", num_ports=ports, **params)
        sram_pct = 100 * sram_utilization(config)
        _drive_fleet(truth.trace, ports, config)
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
