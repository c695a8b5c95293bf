"""Figure 11: PrintQueue vs the baselines across (alpha, k, T) under UW.

Three parameter sets from the paper: (a) alpha=2,k=12,T=4,
(b) alpha=2,k=12,T=5, (c) alpha=3,k=12,T=4.  For each, the bench prints
the *median* precision/recall per depth band for PrintQueue, HashPipe,
and FlowRadar.

Paper shape to match: PrintQueue outperforms at larger query intervals
in all parameter sets; with alpha=3 its accuracy at the smallest
intervals drops (the compression ratio becomes too large) while deep
bands stay strong.
"""

import pytest

from common import (
    baselines,
    fmt,
    ground_truth,
    port,
    print_table,
    workload_config,
)
from repro.experiments.sampling import band_label
from repro.metrics.accuracy import summarize_scores

PARAM_SETS = {
    "a2_k12_T4": dict(alpha=2, k=12, T=4),
    "a2_k12_T5": dict(alpha=2, k=12, T=5),
    "a3_k12_T4": dict(alpha=3, k=12, T=4),
}


def run_fig11(params):
    config = workload_config("uw", **params)
    truth = ground_truth("uw")
    printqueue, _ = port("uw", config)
    hashpipe, flowradar = baselines("uw", config.set_period_ns)
    rows = []
    for band, indices in truth.victims.items():
        if not indices:
            continue
        pq = summarize_scores(truth.score_async(printqueue, indices))
        hp = summarize_scores(truth.score_baseline(hashpipe, indices))
        fr = summarize_scores(truth.score_baseline(flowradar, indices))
        rows.append(
            (
                band_label(band),
                fmt(pq["median_precision"]),
                fmt(pq["median_recall"]),
                fmt(hp["median_precision"]),
                fmt(hp["median_recall"]),
                fmt(fr["median_precision"]),
                fmt(fr["median_recall"]),
            )
        )
    return rows


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_fig11_parameter_sweep(benchmark, name):
    rows = benchmark.pedantic(
        run_fig11, args=(PARAM_SETS[name],), rounds=1, iterations=1
    )
    print_table(
        f"Figure 11 ({name}, UW): median accuracy per depth band",
        ["depth", "PQ prec", "PQ rec", "HP prec", "HP rec", "FR prec", "FR rec"],
        rows,
    )
    # Shape: PrintQueue wins at the largest query intervals in every
    # parameter set.
    deep = rows[-1]
    assert float(deep[1]) > float(deep[3])  # PQ prec > HP prec
    assert float(deep[1]) > float(deep[5])  # PQ prec > FR prec
    assert float(deep[2]) > float(deep[4])  # PQ rec > HP rec
    assert float(deep[2]) > float(deep[6])  # PQ rec > FR rec
