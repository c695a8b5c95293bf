"""The snapshot store's retention policy: one count cap.

``max_snapshots`` bounds both the stored time-window snapshots and the
periodically polled queue-monitor snapshots; the oldest is evicted when
a new one lands.  A PQSTORE1 file records the policy in its header, so
every reader of the file re-derives the same evictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class RetentionPolicy:
    """How many snapshots a store keeps.

    Attributes
    ----------
    max_snapshots:
        Hard cap on stored time-window snapshots and, separately, on
        periodically polled queue-monitor snapshots (on-demand monitor
        reads are never evicted).  The oldest is evicted when a new one
        lands.
    """

    max_snapshots: int = 4096

    def __post_init__(self) -> None:
        if self.max_snapshots < 1:
            raise ConfigError(
                f"max_snapshots must be >= 1, got {self.max_snapshots}"
            )
