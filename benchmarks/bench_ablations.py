"""Ablations of PrintQueue's design choices (DESIGN.md Section 6).

Not a paper artifact — these quantify the contribution of individual
mechanisms on the UW workload:

* coefficient recovery ON vs OFF (deep-window counts uncorrected),
* stale-cell filtering implicitly exercised (snapshots without live
  banks would be garbage; here we compare fractional-overlap weighting
  vs whole-cell inclusion),
* the passing rule vs drop-always (time windows degraded to a single
  ring buffer).
"""


from common import fmt, ground_truth, port, print_table
from repro.core.printqueue import PrintQueuePort
from repro.experiments.runner import drive_printqueue
from repro.metrics.accuracy import summarize_scores


def build_variant(records, config, d_ns, **analysis_flags):
    pq = PrintQueuePort(config, d_ns=d_ns, model_dp_read_cost=False)
    for flag, value in analysis_flags.items():
        setattr(pq.analysis, flag, value)
    drive_printqueue(records, pq)
    return pq


def run_ablations():
    truth = ground_truth("uw")
    full, _ = port("uw")
    records, config, d_ns = truth.records, full.config, truth.d_ns

    variants = {
        "full system": full,
        "no coefficients": build_variant(
            records, config, d_ns, apply_coefficients=False
        ),
        "fractional cells": build_variant(
            records, config, d_ns, fractional_cells=True
        ),
    }
    rows = []
    results = {}
    for name, pq in variants.items():
        summary = summarize_scores(truth.score_async(pq, truth.union))
        rows.append(
            (name, fmt(summary["mean_precision"]), fmt(summary["mean_recall"]))
        )
        results[name] = summary
    return rows, results


def test_ablations(benchmark):
    rows, results = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    print_table(
        "Ablations (UW): mean accuracy of asynchronous queries",
        ["variant", "precision", "recall"],
        rows,
    )
    # Coefficient recovery is what lifts recall: without it, deep-window
    # counts are biased low.
    assert (
        results["no coefficients"]["mean_recall"]
        < results["full system"]["mean_recall"]
    )
