"""Packet and flow-identity model.

PrintQueue identifies culprit flows by the classic 5-tuple (source and
destination IPv4 addresses, transport ports, protocol).  The data-plane
structures additionally need a compact integer form of the flow ID for
register storage and for XOR-based baselines (FlowRadar), which
:meth:`FlowKey.flow_id` provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

PROTO_TCP = 6
PROTO_UDP = 17

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash; deterministic across runs (unlike ``hash``)."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class FlowKey:
    """An immutable 5-tuple flow identity.

    Addresses are stored as 32-bit integers; use :meth:`from_strings` for
    the dotted-quad convenience constructor.  Keys live in dicts on every
    hot path (interning, result dicts), so the 5-tuple hash is computed
    once at construction, and the wire text (``str(key)``) once on first
    use; neither travels in a pickle.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP
    _hash: int = field(init=False, repr=False, compare=False)
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("src_ip", "dst_ip"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"{name} out of IPv4 range: {value}")
        for name in ("src_port", "dst_port"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} out of range: {value}")
        if not 0 <= self.proto <= 0xFF:
            raise ValueError(f"proto out of range: {self.proto}")
        object.__setattr__(self, "_hash", hash(self.sort_key()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[type, Tuple[int, int, int, int, int]]:
        return (type(self), self.sort_key())

    @classmethod
    def from_strings(
        cls,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        proto: int = PROTO_TCP,
    ) -> "FlowKey":
        """Build a key from dotted-quad address strings."""
        return cls(_parse_ipv4(src_ip), _parse_ipv4(dst_ip), src_port, dst_port, proto)

    def sort_key(self) -> Tuple[int, int, int, int, int]:
        """Total order over 5-tuples, for deterministic tie-breaking.

        String-formatting a key gives a lexicographic order that differs
        from the numeric one ("10." < "2."); ranked outputs sort ties on
        this tuple instead so results are stable across runs and paths.
        """
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto)

    def to_bytes(self) -> bytes:
        """Canonical 13-byte wire encoding of the 5-tuple."""
        return (
            self.src_ip.to_bytes(4, "big")
            + self.dst_ip.to_bytes(4, "big")
            + self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.proto.to_bytes(1, "big")
        )

    def flow_id(self) -> int:
        """A deterministic 64-bit integer flow ID derived from the 5-tuple.

        Used as the register-resident representation of the flow and as the
        XOR-able identity in FlowRadar's encoded flowsets.
        """
        return _fnv1a_64(self.to_bytes())

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = (
                f"{_format_ipv4(self.src_ip)}:{self.src_port}->"
                f"{_format_ipv4(self.dst_ip)}:{self.dst_port}/{self.proto}"
            )
            object.__setattr__(self, "_text", text)
        return text


#: Dotted-quad field geometry — the declared width every IPv4 shift and
#: mask below derives from (PQ002: no inline magic widths).
OCTET_BITS = 8
OCTET_MASK = (1 << OCTET_BITS) - 1


def ipv4_octet(value: int, index: int) -> int:
    """Octet ``index`` (0 = most significant) of a packed IPv4 address."""
    return (value >> ((3 - index) * OCTET_BITS)) & OCTET_MASK


def _parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= OCTET_MASK:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = (value << OCTET_BITS) | octet
    return value


def _format_ipv4(value: int) -> str:
    return ".".join(str(ipv4_octet(value, i)) for i in range(4))


@dataclass
class Packet:
    """A simulated packet together with its queueing metadata.

    The four metadata fields of the paper's Table 1 are populated by the
    switch simulator as the packet traverses the traffic manager:

    * ``egress_spec`` — output port (set at ingress),
    * ``enq_timestamp`` — enqueue time in ns,
    * ``deq_timedelta`` — time spent in the queue in ns,
    * ``enq_qdepth`` — queue depth observed at enqueue.
    """

    flow: FlowKey
    size_bytes: int
    arrival_ns: int
    priority: int = 0
    seq: int = 0

    # Table-1 metadata, filled in by the simulator.
    egress_spec: Optional[int] = None
    enq_timestamp: Optional[int] = None
    deq_timedelta: Optional[int] = None
    enq_qdepth: Optional[int] = None
    deq_qdepth: Optional[int] = None
    dropped: bool = False

    # Cached flow_id; computed lazily because victim-only paths never need it.
    _flow_id: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"non-positive packet size: {self.size_bytes}")
        if self.arrival_ns < 0:
            raise ValueError(f"negative arrival time: {self.arrival_ns}")

    @property
    def flow_id(self) -> int:
        """64-bit integer flow ID (cached)."""
        if self._flow_id is None:
            self._flow_id = self.flow.flow_id()
        return self._flow_id

    @property
    def deq_timestamp(self) -> int:
        """Dequeue time = ``enq_timestamp + deq_timedelta`` (Section 4.2)."""
        if self.enq_timestamp is None or self.deq_timedelta is None:
            raise ValueError("packet has not been dequeued yet")
        return self.enq_timestamp + self.deq_timedelta

    @property
    def queued(self) -> bool:
        """True once the packet has passed through a queue."""
        return self.deq_timedelta is not None
