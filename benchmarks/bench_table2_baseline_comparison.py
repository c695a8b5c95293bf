"""Table 2: average precision/recall of PrintQueue vs HashPipe vs
FlowRadar under the UW, WS, and DM traces.

Baselines get 5 stages x 4096 entries of SRAM, reset every PrintQueue
set period, with interval queries answered by prorating (Section 7.1's
comparison harness).  PrintQueue is scored on asynchronous queries only,
as in the paper ("for fairness").

Paper shape to match: PrintQueue's average precision/recall clearly above
both baselines on every trace; HashPipe and FlowRadar close to each
other; UW the hardest trace for everyone.
"""

import pytest

from common import WORKLOADS, baselines, fmt, ground_truth, port, print_table
from repro.metrics.accuracy import summarize_scores


def run_table2(workload: str):
    truth = ground_truth(workload)
    printqueue, _ = port(workload)
    hashpipe, flowradar = baselines(workload, printqueue.config.set_period_ns)
    pq = summarize_scores(truth.score_async(printqueue, truth.union))
    hp = summarize_scores(truth.score_baseline(hashpipe, truth.union))
    fr = summarize_scores(truth.score_baseline(flowradar, truth.union))
    return pq, hp, fr


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_table2_baseline_comparison(benchmark, workload):
    pq, hp, fr = benchmark.pedantic(
        run_table2, args=(workload,), rounds=1, iterations=1
    )
    print_table(
        f"Table 2 ({workload.upper()}): average precision/recall",
        ["system", "precision", "recall"],
        [
            ("PrintQueue", fmt(pq["mean_precision"]), fmt(pq["mean_recall"])),
            ("HashPipe", fmt(hp["mean_precision"]), fmt(hp["mean_recall"])),
            ("FlowRadar", fmt(fr["mean_precision"]), fmt(fr["mean_recall"])),
        ],
    )
    # Shape: PrintQueue wins on both axes against both baselines.
    assert pq["mean_precision"] > hp["mean_precision"]
    assert pq["mean_precision"] > fr["mean_precision"]
    assert pq["mean_recall"] > hp["mean_recall"]
    assert pq["mean_recall"] > fr["mean_recall"]
