"""Extension bench: PrintQueue versus ConQuest on victim diagnosis.

Not a paper table — it substantiates the Section-1/8 comparison in
numbers: ConQuest judges whether a flow is a main contributor to the
*current* queue, but cannot answer the reverse lookup ("given a victim,
who were the culprits?") once the congestion has outlived its snapshot
ring.  The bench measures, on the UW workload:

* how often a victim's queuing delay even fits inside ConQuest's
  readable snapshot coverage, per depth band, and
* the recall of a ConQuest-derived culprit estimate versus PrintQueue's
  asynchronous query for the same victims.
"""


from common import fmt, ground_truth, port, print_table
from repro.baselines.conquest import ConQuest
from repro.core.queries import FlowEstimate
from repro.experiments.sampling import band_label
from repro.metrics.accuracy import summarize_scores


def conquest_estimate(cq, flows, record):
    """Culprit estimate from ConQuest's primitives: each of the
    operator-known candidate ``flows`` seen in the standing queue
    contributes its snapshot counts."""
    estimate = FlowEstimate()
    delay = record.queuing_delay
    for flow in flows:
        count = cq.queue_contribution(flow, record.deq_timestamp, delay)
        if count:
            estimate.add(flow, count)
    return estimate


def run_comparison():
    truth = ground_truth("uw")
    pq, _ = port("uw")
    records, victims = truth.records, truth.victims
    flows = {flow for flow, _ in truth.dequeues()}  # operator-known candidates
    # Resource-comparable ConQuest: 4 snapshots of 4096x2 CMS (32k
    # entries, same order as PrintQueue's 4x4096 cells x banks).
    cq = ConQuest(num_snapshots=4, slice_ns=1 << 16, sketch_width=4096, sketch_depth=2)

    # ConQuest is an *online* structure: estimates are only meaningful at
    # the victim's own dequeue instant, so replay enqueues in time order
    # and snapshot each victim's estimate as its dequeue passes.
    scoring = {
        i
        for indices in victims.values()
        for i in indices[:10]  # ConQuest scoring scans the flow table
    }
    by_enq = sorted(range(len(records)), key=lambda i: records[i].enq_timestamp)
    by_deq = sorted(scoring, key=lambda i: records[i].deq_timestamp)
    cq_estimates = {}
    e = 0
    for i in by_deq:
        deq_ts = records[i].deq_timestamp
        while e < len(by_enq) and records[by_enq[e]].enq_timestamp <= deq_ts:
            record = records[by_enq[e]]
            cq.on_enqueue(record.flow, record.enq_timestamp)
            e += 1
        cq_estimates[i] = conquest_estimate(cq, flows, records[i])

    rows = []
    stats = {}
    for band, indices in victims.items():
        if not indices:
            continue
        covered = sum(
            1
            for i in indices
            if cq.can_cover_delay(records[i].queuing_delay)
        )
        scored = indices[:10]
        cqs = summarize_scores(
            truth.score(scored, (cq_estimates[i] for i in scored))
        )
        pqs = summarize_scores(
            truth.score(
                scored,
                (pq.query(interval=truth.intervals[i]).estimate for i in scored),
            )
        )
        rows.append(
            (
                band_label(band),
                f"{covered}/{len(indices)}",
                fmt(cqs["mean_recall"]),
                fmt(pqs["mean_recall"]),
            )
        )
        stats[band] = (covered / len(indices), cqs, pqs)
    return rows, stats


def test_conquest_comparison(benchmark):
    rows, stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "PrintQueue vs ConQuest (UW): victim-delay coverage and recall",
        ["depth", "CQ ring covers", "CQ recall", "PQ recall"],
        rows,
    )
    deep_bands = [b for b in stats if b[0] >= 10_000]
    assert deep_bands, "no deep-queue victims sampled"
    for band in deep_bands:
        coverage, cqs, pqs = stats[band]
        # Deep queues outlive ConQuest's ring: coverage collapses and
        # PrintQueue's recall dominates.
        assert coverage < 0.5
        assert pqs["mean_recall"] > cqs["mean_recall"]
