"""Extension bench: the sampling accuracy/storage trade-off (Section 1).

The paper dismisses packet-sampling telemetry as "either necessitating
heavy sampling or failing to scale".  This bench quantifies that on the
UW workload: for sampling rates 1, 8, 64, 512, it reports the export
bandwidth next to the mean recall over the Figure-9 victims, and places
PrintQueue's (bandwidth, recall) point alongside.

Expected shape: full capture (rate 1) matches PrintQueue's accuracy at
roughly an order of magnitude more bandwidth; by the time sampling's
bandwidth drops to PrintQueue's level, its recall on short intervals has
collapsed.
"""


from common import fmt, ground_truth, port, print_table
from repro.baselines.sampled import SampledTelemetry
from repro.metrics.accuracy import summarize_scores
from repro.metrics.overhead import printqueue_storage_mbps

RATES = [1, 8, 64, 512]


def run_tradeoff():
    truth = ground_truth("uw")
    pq, _ = port("uw")
    victims = truth.union

    telemetries = {rate: SampledTelemetry(rate) for rate in RATES}
    for flow, deq_ts in truth.dequeues():
        for tel in telemetries.values():
            tel.update(flow, deq_ts)

    rows = []
    results = {}
    for rate, tel in telemetries.items():
        summary = summarize_scores(truth.score_baseline(tel, victims))
        rows.append(
            (
                f"sampled 1/{rate}",
                f"{tel.storage_mbps():.2f}",
                fmt(summary["mean_precision"]),
                fmt(summary["mean_recall"]),
            )
        )
        results[rate] = (tel.storage_mbps(), summary)

    pq_summary = summarize_scores(truth.score_async(pq, victims))
    pq_mbps = printqueue_storage_mbps(pq.config)
    rows.append(
        (
            "PrintQueue",
            f"{pq_mbps:.2f}",
            fmt(pq_summary["mean_precision"]),
            fmt(pq_summary["mean_recall"]),
        )
    )
    return rows, results, (pq_mbps, pq_summary)


def test_sampling_tradeoff(benchmark):
    rows, results, (pq_mbps, pq_summary) = benchmark.pedantic(
        run_tradeoff, rounds=1, iterations=1
    )
    print_table(
        "Sampling trade-off (UW): export bandwidth vs accuracy",
        ["system", "MB/s", "precision", "recall"],
        rows,
    )
    # Full capture needs far more bandwidth than PrintQueue...
    assert results[1][0] > 5 * pq_mbps
    # ...while every sampling rate that fits inside PrintQueue's export
    # budget scores lower recall on the same victims.  (The Figure-9
    # victims have long intervals, sampling's best case; short intervals
    # degrade it much further — see tests/test_sampled.py.)
    within_budget = [r for r in RATES if results[r][0] <= pq_mbps]
    assert within_budget, "no sampling rate fit PrintQueue's budget"
    for rate in within_budget:
        assert results[rate][1]["mean_recall"] < pq_summary["mean_recall"]
