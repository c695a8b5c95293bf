#!/usr/bin/env python3
"""Microburst diagnosis with data-plane triggered queries.

Replays a microburst (8 flows blasting at an aggregate 40 Gbps into a
10 Gbps port over light background traffic) through the *event-driven*
switch simulator with PrintQueue attached via egress-pipeline hooks.  A
data-plane trigger fires an on-demand register read for any packet whose
queuing delay crosses a threshold — the Section 6.2 mechanism — and the
analysis program resolves the culprits while the burst data still sits in
the least-compressed time window.

Run:  python examples/microburst_diagnosis.py
"""

from repro import PrintQueueConfig
from repro.core.printqueue import PrintQueue, delay_threshold_trigger
from repro.core.taxonomy import CulpritTaxonomy
from repro.metrics.accuracy import precision_recall
from repro.switch.port import EgressPort
from repro.switch.switchsim import Switch
from repro.switch.telemetry import GroundTruthRecorder
from repro.traffic.scenarios import microburst_scenario
from repro.units import GBPS

CONFIG = PrintQueueConfig(m0=10, k=12, alpha=1, T=4, min_packet_bytes=1500)
DELAY_TRIGGER_NS = 200_000  # flag packets queued longer than 200 us


def main() -> None:
    print("Building microburst trace (8 burst flows over background) ...")
    trace = microburst_scenario(burst_flows=8, burst_packets_per_flow=100)
    burst_flows = {f for f in trace.flows if f.src_port >= 6000}

    pq = PrintQueue(
        CONFIG,
        port_ids=[0],
        d_ns=1200.0,
        trigger=delay_threshold_trigger(DELAY_TRIGGER_NS),
    )
    # Instant reads for the demo; flip to True for the hardware-faithful
    # PCIe model where closely spaced triggers are rejected.
    pq.port(0).analysis.model_dp_read_cost = False

    recorder = GroundTruthRecorder()
    port = EgressPort(0, 10 * GBPS)
    switch = Switch([port])
    pq.attach(switch.ports.values())
    port.add_egress_hook(recorder.hook)

    switch.run_trace(trace.packets())
    pq.finish(recorder.records[-1].deq_timestamp + 1)

    results = pq.port(0).dp_results
    print(
        f"  {len(recorder)} packets forwarded; "
        f"{len(results)} data-plane queries triggered"
    )
    if not results:
        print("No packet crossed the delay threshold; nothing to diagnose.")
        return

    taxonomy = CulpritTaxonomy(list(recorder.records))
    worst = max(results, key=lambda r: r.interval.length_ns)
    print(
        f"\nWorst victim waited {worst.interval.length_ns / 1000:.1f} us; "
        "direct culprits found by the on-demand query:"
    )
    burst_share = 0.0
    for flow, count in worst.estimate.top(10):
        tag = "BURST" if flow in burst_flows else "bgnd "
        print(f"  [{tag}] {flow}  ~{count:.0f} pkts")
        if flow in burst_flows:
            burst_share += count
    total = worst.estimate.total
    print(f"\nBurst flows account for {100 * burst_share / max(total, 1):.0f}% "
          "of the victim's direct culprits.")

    # Score the data-plane query against ground truth.
    victim_record = next(
        r
        for r in recorder.records
        if r.deq_timestamp == worst.trigger_time_ns
    )
    score = precision_recall(worst.estimate, taxonomy.direct(victim_record))
    print(
        f"Query accuracy vs ground truth: precision={score.precision:.3f} "
        f"recall={score.recall:.3f}"
    )


if __name__ == "__main__":
    main()
