#!/usr/bin/env python3
"""Multi-port deployment: per-port activation and independent tracking.

PrintQueue is enabled per egress port (Section 6.1); each activated port
gets its own register partitions, and packets to unconfigured ports are
ignored by the ingress flow table.  This example runs a three-port
switch where only two ports have PrintQueue enabled, drives different
congestion levels into each, and diagnoses the hottest victim per port.
It also prints the SRAM bill for the deployment and the advisor's
assessment of the chosen configuration.

Run:  python examples/multi_port.py
"""

from repro.core.advisor import advise
from repro.core.config import PrintQueueConfig
from repro.core.diagnosis import Diagnoser
from repro.core.printqueue import PrintQueue
from repro.metrics.overhead import sram_utilization, time_windows_sram_bytes
from repro.switch.port import EgressPort
from repro.switch.switchsim import Switch
from repro.switch.telemetry import GroundTruthRecorder
from repro.traffic.distributions import WebSearchDistribution
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.units import GBPS

# Per-port resources shrink when more ports activate (Figure 15); with
# two ports we keep the full k=12 configuration.
CONFIG = PrintQueueConfig(
    m0=10, k=12, alpha=1, T=4, min_packet_bytes=1500, num_ports=2,
    qm_poll_period_ns=500_000,
)
MONITORED_PORTS = [0, 1]


def main() -> None:
    print("Advisor assessment of the chosen configuration:")
    notes = advise(CONFIG, packet_interval_ns=1200.0, expected_max_depth=30_000)
    for note in notes or []:
        print(f"  {note}")
    if not notes:
        print("  (clean)")
    sram = time_windows_sram_bytes(CONFIG)
    print(
        f"SRAM bill: {sram / 1024:.0f} KiB time windows across "
        f"r({len(MONITORED_PORTS)}) = {CONFIG.rounded_ports} partitions "
        f"({100 * sram_utilization(CONFIG):.1f}% of the pipe budget)\n"
    )

    pq = PrintQueue(CONFIG, port_ids=MONITORED_PORTS, d_ns=1200.0)
    for port_pq in pq.ports.values():
        port_pq.analysis.model_dp_read_cost = False
    ports = [EgressPort(i, 10 * GBPS) for i in range(3)]
    recorders = {i: GroundTruthRecorder() for i in range(3)}
    for port in ports:
        port.add_egress_hook(recorders[port.port_id].hook)
    switch = Switch(ports)
    pq.attach(switch.ports.values())

    # Port 0: heavy congestion; port 1: mild; port 2: unmonitored.
    loads = {0: 1.35, 1: 1.05, 2: 1.2}
    for port_id, load in loads.items():
        trace = PoissonWorkload(
            WebSearchDistribution(),
            WorkloadConfig(load=load, duration_ns=6_000_000),
            seed=100 + port_id,
        ).generate()
        for packet in trace.packets():
            packet.egress_spec = port_id
            switch.inject(packet)
    switch.run()
    end = max(
        r.records[-1].deq_timestamp for r in recorders.values() if len(r)
    )
    pq.finish(end + 1)

    for port_id in MONITORED_PORTS:
        records = recorders[port_id].records
        victim = max(records, key=lambda r: r.queuing_delay)
        report = Diagnoser(pq.port(port_id)).diagnose_record(victim)
        print(f"--- port {port_id} (offered load {loads[port_id]:.2f}) ---")
        print(
            f"  {len(records)} packets, worst queuing "
            f"{victim.queuing_delay / 1000:.0f} us at depth {victim.enq_qdepth}"
        )
        top = report.direct.top(2)
        for flow, count in top:
            print(f"  top direct culprit: {flow} ~{count:.0f} pkts")
        print()

    unmonitored = pq.ports.get(2)
    print(
        f"port 2 carried {len(recorders[2])} packets but is not in the "
        f"flow table -> tracked ports: {sorted(pq.ports)} (port 2 ignored)."
    )
    assert unmonitored is None


if __name__ == "__main__":
    main()
