"""Figure 13: control-plane storage bandwidth versus accuracy.

For a family of (alpha, k, T) configurations under UW traffic, the bench
reports the required PCIe/storage bandwidth in MB/s next to the measured
mean precision and recall of asynchronous queries, plus the data-exchange
limit line of the current analysis-program model.

Paper shape to match: larger alpha / T compress more (lower MB/s, lower
accuracy); k moves bandwidth very little (set period and register count
scale together) and barely affects async accuracy; the chosen
configurations sit under the data-exchange limit.
"""


from common import fmt, ground_truth, port, print_table, workload_config
from repro.metrics.accuracy import summarize_scores
from repro.metrics.overhead import pcie_limit_mbps, printqueue_storage_mbps

CONFIGS = {
    "1_12_5": dict(alpha=1, k=12, T=5),
    "2_12_4": dict(alpha=2, k=12, T=4),
    "2_12_5": dict(alpha=2, k=12, T=5),
    "2_11_4": dict(alpha=2, k=11, T=4),
    "3_12_4": dict(alpha=3, k=12, T=4),
}


def run_fig13():
    truth = ground_truth("uw")
    rows = []
    measured = {}
    for name, params in CONFIGS.items():
        config = workload_config("uw", **params)
        pq, _ = port("uw", config)
        summary = summarize_scores(truth.score_async(pq, truth.union))
        mbps = printqueue_storage_mbps(config)
        rows.append(
            (
                name,
                f"{mbps:.2f}",
                fmt(summary["mean_precision"]),
                fmt(summary["mean_recall"]),
            )
        )
        measured[name] = (mbps, summary)
    return rows, measured


def test_fig13_storage_vs_accuracy(benchmark):
    rows, measured = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    print_table(
        "Figure 13 (UW): storage overhead (MB/s) vs accuracy",
        ["alpha_k_T", "MB/s", "precision", "recall"],
        rows,
    )
    print(f"data exchange limit: {pcie_limit_mbps():.1f} MB/s")
    # Shape: more aggressive compression -> lower bandwidth.
    assert measured["3_12_4"][0] < measured["2_12_4"][0] < measured["1_12_5"][0]
    assert measured["2_12_5"][0] < measured["2_12_4"][0]
    # The paper's chosen configs fall under the data-exchange limit.
    assert measured["2_12_4"][0] <= pcie_limit_mbps()
    # k has little effect on bandwidth (set period scales with 2^k too).
    k11, k12 = measured["2_11_4"][0], measured["2_12_4"][0]
    assert abs(k11 - k12) / k12 < 0.01
