"""Multi-switch topologies: wiring switches into a network.

PrintQueue is a per-switch system, but performance diagnosis questions
("which hop delayed this packet, and who was there?") are network-level.
This module connects :class:`~repro.switch.switchsim.Switch` instances
over propagation-delay links on one shared event clock, so a packet can
traverse leaf -> spine -> leaf with PrintQueue active on every egress
port it crosses.

A packet is *re-materialized* at each hop (fresh metadata per queue, as
on real hardware), while a :class:`PathRecorder` keeps the per-hop
records stitched together by packet identity for end-to-end analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, SimulationError
from repro.switch.events import EventQueue
from repro.switch.packet import FlowKey, Packet, ipv4_octet
from repro.switch.port import EgressPort
from repro.switch.switchsim import Switch


@dataclass(frozen=True)
class HopRecord:
    """One hop's queueing metadata for one packet."""

    node: str
    port_id: int
    enq_timestamp: int
    deq_timestamp: int
    enq_qdepth: int

    @property
    def queuing_delay(self) -> int:
        return self.deq_timestamp - self.enq_timestamp


@dataclass
class PathTrace:
    """All hops one packet traversed, in order."""

    flow: FlowKey
    seq: int
    hops: List[HopRecord] = field(default_factory=list)

    @property
    def total_queuing(self) -> int:
        return sum(h.queuing_delay for h in self.hops)

    def worst_hop(self) -> HopRecord:
        if not self.hops:
            raise SimulationError("packet has not traversed any hop")
        return max(self.hops, key=lambda h: h.queuing_delay)


class Network:
    """Switches + links on a single event clock.

    Nodes are added with :meth:`add_switch`; a link attaches an egress
    port of one node to another node's ingress (with propagation delay).
    Ports without a link are network egress (hosts); packets leaving
    them are complete.
    """

    def __init__(self) -> None:
        self.events = EventQueue()
        self.nodes: Dict[str, Switch] = {}
        #: (node, port_id) -> (next_node, propagation_ns)
        self._links: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._forwarders: Dict[str, Callable[[Packet], int]] = {}
        self._path_recorder: Optional["PathRecorder"] = None
        self.delivered: List[Packet] = []

    # -- construction -----------------------------------------------------

    def add_switch(
        self,
        name: str,
        ports: Sequence[EgressPort],
        forwarder: Callable[[Packet], int],
    ) -> Switch:
        """Add a node; ``forwarder(packet) -> egress port id`` routes it."""
        if name in self.nodes:
            raise ConfigError(f"duplicate node {name!r}")
        switch = Switch(ports, classifier=forwarder)
        # All nodes share one clock: replace the private event queue.
        switch.events = self.events
        self.nodes[name] = switch
        self._forwarders[name] = forwarder
        for port in ports:
            port.add_egress_hook(self._make_egress_hook(name, port))
        return switch

    def link(
        self, node: str, port_id: int, next_node: str, propagation_ns: int = 1000
    ) -> None:
        """Attach ``node``'s egress ``port_id`` to ``next_node``'s ingress."""
        if node not in self.nodes or next_node not in self.nodes:
            raise ConfigError("both endpoints must be added first")
        if port_id not in self.nodes[node].ports:
            raise ConfigError(f"{node} has no port {port_id}")
        if propagation_ns < 0:
            raise ConfigError(f"negative propagation: {propagation_ns}")
        self._links[(node, port_id)] = (next_node, propagation_ns)

    def record_paths(self) -> "PathRecorder":
        """Enable per-packet path stitching; returns the recorder."""
        if self._path_recorder is None:
            self._path_recorder = PathRecorder()
        return self._path_recorder

    # -- data path ------------------------------------------------------------

    def _make_egress_hook(self, name: str, port: EgressPort):
        def hook(packet: Packet) -> None:
            if self._path_recorder is not None:
                self._path_recorder.on_hop(name, port.port_id, packet)
            destination = self._links.get((name, port.port_id))
            if destination is None:
                self.delivered.append(packet)
                return
            next_node, propagation = destination
            arrival = packet.deq_timestamp + propagation
            # Re-materialize: fresh metadata for the next hop's queue.
            next_hop = Packet(
                packet.flow,
                packet.size_bytes,
                arrival,
                priority=packet.priority,
                seq=packet.seq,
            )
            self.events.schedule(
                arrival, lambda p=next_hop: self._ingress_at(next_node, p)
            )

        return hook

    def _ingress_at(self, node: str, packet: Packet) -> None:
        self.nodes[node]._ingress(packet)

    def inject(self, node: str, packet: Packet) -> None:
        """Schedule a packet's first-hop arrival at ``node``."""
        if node not in self.nodes:
            raise ConfigError(f"unknown node {node!r}")
        self.events.schedule(
            packet.arrival_ns, lambda: self._ingress_at(node, packet)
        )

    def run(self, until_ns: Optional[int] = None) -> int:
        """Run the whole network to completion; returns the last time."""
        if until_ns is None:
            return self.events.run_all()
        return self.events.run_until(until_ns)


class PathRecorder:
    """Stitches per-hop records into per-packet path traces."""

    def __init__(self) -> None:
        self._paths: Dict[Tuple[int, int], PathTrace] = {}

    def on_hop(self, node: str, port_id: int, packet: Packet) -> None:
        key = (packet.flow_id, packet.seq)
        trace = self._paths.get(key)
        if trace is None:
            trace = PathTrace(flow=packet.flow, seq=packet.seq)
            self._paths[key] = trace
        assert packet.enq_timestamp is not None
        assert packet.enq_qdepth is not None
        trace.hops.append(
            HopRecord(
                node=node,
                port_id=port_id,
                enq_timestamp=packet.enq_timestamp,
                deq_timestamp=packet.deq_timestamp,
                enq_qdepth=packet.enq_qdepth,
            )
        )

    def paths(self) -> List[PathTrace]:
        return list(self._paths.values())



def build_leaf_spine(
    num_leaves: int = 2,
    rate_bps: int = 10_000_000_000,
    propagation_ns: int = 1000,
    host_port: int = 0,
    up_port: int = 1,
) -> Tuple[Network, Dict[str, Switch]]:
    """A minimal leaf-spine fabric: N leaves, one spine.

    Each leaf has a host-facing port (``host_port``) and an uplink
    (``up_port``); the spine has one downlink port per leaf (port ``i``
    faces ``leaf<i>``).  Routing: at a leaf, traffic for a local
    destination (matching the leaf's subnet octet) exits the host port,
    everything else goes up; the spine forwards by destination subnet.

    Convention: a flow with ``dst_ip`` in ``10.<l>.x.y`` belongs to
    ``leaf<l>``.
    """
    if num_leaves < 2:
        raise ConfigError("leaf-spine needs at least two leaves")
    network = Network()

    def leaf_forwarder(leaf_index: int) -> Callable[[Packet], int]:
        def forward(packet: Packet) -> int:
            destination_leaf = ipv4_octet(packet.flow.dst_ip, 1)
            return host_port if destination_leaf == leaf_index else up_port

        return forward

    def spine_forwarder(packet: Packet) -> int:
        return ipv4_octet(packet.flow.dst_ip, 1)

    spine_ports = [EgressPort(i, rate_bps) for i in range(num_leaves)]
    network.add_switch("spine", spine_ports, spine_forwarder)

    nodes = {"spine": network.nodes["spine"]}
    for i in range(num_leaves):
        name = f"leaf{i}"
        ports = [EgressPort(host_port, rate_bps), EgressPort(up_port, rate_bps)]
        network.add_switch(name, ports, leaf_forwarder(i))
        network.link(name, up_port, "spine", propagation_ns)
        network.link("spine", i, name, propagation_ns)
        nodes[name] = network.nodes[name]
    return network, nodes
