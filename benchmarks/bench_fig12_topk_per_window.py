"""Figure 12: Top-K flow accuracy of each individual time window.

UW-like traffic, alpha=1, k=12, T=5; the query interval is each window's
own full window period.  For K in {50, 100, 200, 500, all}, the bench
prints precision and recall per window index.

Paper shape to match: window 0 near-perfect; accuracy degrading with
window depth; Top-50/100 staying relatively accurate in deeper windows
(heavy flows survive compression) while Top-500 / all-flows degrade
faster (mice overwhelm elephants in the UW long tail).
"""


from common import fmt, ground_truth, port, print_table, workload_config
from repro.core.queries import QueryInterval
from repro.experiments.runner import query_time_windows_scalar
from repro.metrics.accuracy import precision_recall, topk_precision_recall

KS = [50, 100, 200, 500]


def run_fig12():
    config = workload_config("uw", alpha=1, k=12, T=5)
    records = ground_truth("uw").records
    pq, _ = port("uw", config)
    analysis = pq.analysis
    # Use the newest periodic snapshot whose bank was active for a full
    # set period (the final finish() flush covers only a sliver, leaving
    # deep windows empty).
    periodic = [s for s in analysis.tw_snapshots if s.source == "periodic"]
    snapshot = max(
        periodic, key=lambda s: (s.read_time_ns - s.valid_from_ns, s.read_time_ns)
    )
    rows = []
    shapes = {}
    for fw in snapshot.windows:
        cov = fw.coverage_ns(config.k)
        if cov is None:
            continue
        start = max(cov[0], snapshot.valid_from_ns)
        end = min(cov[1], snapshot.read_time_ns)
        if end - start < 2:
            continue
        interval = QueryInterval(start, end)
        estimate = query_time_windows_scalar(
            analysis, interval, snapshots=[snapshot]
        )
        truth = {}
        for r in records:
            if start <= r.deq_timestamp < end:
                truth[r.flow] = truth.get(r.flow, 0) + 1
        row = [fw.window_index]
        scores = {}
        for k_top in KS:
            score = topk_precision_recall(estimate.as_dict(), truth, k_top)
            scores[k_top] = score
            row.append(f"{fmt(score.precision)}/{fmt(score.recall)}")
        full = precision_recall(estimate.as_dict(), truth)
        scores["all"] = full
        row.append(f"{fmt(full.precision)}/{fmt(full.recall)}")
        rows.append(row)
        shapes[fw.window_index] = scores
    return rows, shapes


def test_fig12_topk_per_window(benchmark):
    rows, shapes = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    print_table(
        "Figure 12 (UW-like, alpha=1 k=12 T=5): per-window Top-K prec/rec",
        ["window"] + [f"top{k}" for k in KS] + ["all"],
        rows,
    )
    assert rows, "no windows had coverage"
    # Shape: window 0 near-exact for the heavy flows.
    w0 = shapes[0]
    assert w0[50].precision > 0.9 and w0[50].recall > 0.9
    # Deeper windows lose accuracy relative to window 0 on the all-flows
    # metric.
    deepest = max(shapes)
    if deepest > 0:
        assert shapes[deepest]["all"].recall <= w0["all"].recall + 0.05
