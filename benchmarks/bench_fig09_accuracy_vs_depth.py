"""Figure 9: precision and recall versus queue depth.

Regenerates, for each workload (UW / WS / DM) and each queue-depth band
(1-2k ... >20k), the mean precision and recall of asynchronous queries
(AQ, worst case: periodically polled registers) and data-plane-triggered
queries (DQ, registers frozen at the victim's dequeue).

Paper shape to match: DQ consistently high (>90 %), dipping slightly at
the longest intervals; AQ showing the opposite trend — accuracy *rising*
with queue depth.
"""

import pytest

from common import (
    WORKLOADS,
    assert_plan_matches_scalar,
    fmt,
    ground_truth,
    port,
    print_table,
)
from repro.experiments.sampling import band_label
from repro.metrics.accuracy import summarize_scores


def run_fig9(workload: str):
    truth = ground_truth(workload)
    clean, _ = port(workload)
    triggered, dp_results = port(workload, triggers=True)
    rows = []
    spot_checked = False
    for band, indices in truth.victims.items():
        if not indices:
            continue
        # AQ and DQ victims go through the compiled plan; spot-check one
        # band's subsample on both ports against the scalar specification
        # (identical estimates, not just close).
        if not spot_checked:
            assert_plan_matches_scalar(clean, truth, indices[:5])
            assert_plan_matches_scalar(triggered, truth, indices[:5], dp_results)
            spot_checked = True
        aq = summarize_scores(truth.score_async(clean, indices))
        dq = summarize_scores(truth.score_dataplane(dp_results, indices))
        rows.append(
            (
                band_label(band),
                len(indices),
                fmt(aq["mean_precision"]),
                fmt(aq["mean_recall"]),
                fmt(dq["mean_precision"]),
                fmt(dq["mean_recall"]),
            )
        )
    return rows


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_fig9_accuracy_vs_depth(benchmark, workload):
    rows = benchmark.pedantic(run_fig9, args=(workload,), rounds=1, iterations=1)
    print_table(
        f"Figure 9 ({workload.upper()}): accuracy vs queue depth",
        ["depth", "n", "AQ prec", "AQ rec", "DQ prec", "DQ rec"],
        rows,
    )
    assert rows, "no depth band produced victims; workload under-loaded?"
    # Shape assertions (not absolute numbers): DQ stays high; AQ recall
    # grows with depth (the paper's reverse trend for async queries).
    dq_prec = [float(r[4]) for r in rows]
    assert min(dq_prec) > 0.8
    aq_rec = [float(r[3]) for r in rows]
    assert aq_rec[-1] >= aq_rec[0] - 0.05
