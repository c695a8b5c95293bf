"""Query inputs and results (Section 6.3).

Time-window queries take a query *interval* and return per-flow packet
count estimates; queue-monitor queries take a query *point* and return the
original causes of the congestion standing at that instant.  Both kinds of
result aggregate culprits by flow, expressed as (flow ID, contribution)
per Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import QueryError
from repro.switch.packet import FlowKey


def flow_order_key(flow: FlowKey) -> Tuple[int, int, int, int, int]:
    """Deterministic secondary sort key for ranked per-flow outputs.

    Count ties must resolve identically no matter which code path (scalar
    walk or columnar batch) produced the estimate.
    """
    return flow.sort_key()


@dataclass(frozen=True)
class QueryInterval:
    """A closed-open time interval ``[start_ns, end_ns)``."""

    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if self.end_ns <= self.start_ns:
            raise QueryError(
                f"empty query interval [{self.start_ns}, {self.end_ns})"
            )

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns

    def intersect(self, start_ns: int, end_ns: int) -> Optional["QueryInterval"]:
        lo = max(self.start_ns, start_ns)
        hi = min(self.end_ns, end_ns)
        if hi <= lo:
            return None
        return QueryInterval(lo, hi)

    @classmethod
    def for_victim(cls, enq_timestamp: int, deq_timestamp: int) -> "QueryInterval":
        """The direct-culprit interval of a victim packet.

        The closed-open convention plus the +1 keeps both endpoints'
        dequeues inside the interval.
        """
        return cls(enq_timestamp, deq_timestamp + 1)


class FlowEstimate:
    """Per-flow packet-count estimates, the result of a time-window query."""

    def __init__(self, counts: Optional[Mapping[FlowKey, float]] = None) -> None:
        self._counts: Dict[FlowKey, float] = dict(counts or {})

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, flow: FlowKey) -> bool:
        return flow in self._counts

    def __getitem__(self, flow: FlowKey) -> float:
        return self._counts.get(flow, 0.0)

    def add(self, flow: FlowKey, count: float) -> None:
        if count < 0:
            raise ValueError(f"negative count: {count}")
        self._counts[flow] = self._counts.get(flow, 0.0) + count

    def merge(self, other: "FlowEstimate") -> "FlowEstimate":
        merged = FlowEstimate(self._counts)
        for flow, count in other.items():
            merged.add(flow, count)
        return merged

    def items(self) -> Iterable[Tuple[FlowKey, float]]:
        return self._counts.items()

    def as_dict(self) -> Dict[FlowKey, float]:
        return dict(self._counts)

    @property
    def total(self) -> float:
        return sum(self._counts.values())

    def top(self, n: int) -> List[Tuple[FlowKey, float]]:
        """The n largest flows by estimated contribution.

        Ties break on the numeric 5-tuple (not its string form), so the
        ranking is deterministic and identical across query paths.
        """
        return sorted(
            self._counts.items(), key=lambda kv: (-kv[1], flow_order_key(kv[0]))
        )[:n]

    def __repr__(self) -> str:
        return f"FlowEstimate({len(self._counts)} flows, total={self.total:.1f})"


@dataclass
class CulpritReport:
    """A full Section-2 diagnosis for one victim packet."""

    victim_enq_ns: int
    victim_deq_ns: int
    direct: FlowEstimate = field(default_factory=FlowEstimate)
    indirect: FlowEstimate = field(default_factory=FlowEstimate)
    original: FlowEstimate = field(default_factory=FlowEstimate)

    def summary(self, top: int = 5) -> str:
        lines = [
            f"victim queued {self.victim_deq_ns - self.victim_enq_ns} ns "
            f"([{self.victim_enq_ns}, {self.victim_deq_ns}])"
        ]
        for label, estimate in (
            ("direct", self.direct),
            ("indirect", self.indirect),
            ("original", self.original),
        ):
            lines.append(f"  {label} culprits ({estimate.total:.0f} pkts):")
            for flow, count in estimate.top(top):
                lines.append(f"    {flow}  ~{count:.1f} pkts")
        return "\n".join(lines)
