"""Fault plans: deterministic, seedable descriptions of control-plane loss.

A :class:`FaultPlan` is a frozen bundle of per-event fault probabilities
plus the RNG seed that makes a run reproducible: the same plan driven
over the same event stream injects the same faults at the same polls,
whichever ingest engine replays it.  Plans say *what can go wrong*; the
:class:`~repro.faults.injector.FaultInjector` draws the outcomes and the
:class:`~repro.faults.resilience.ResilientPoller` survives them.

Each knob maps to a hazard of the paper's control-plane read path (§6):

``poll_drop_rate`` / ``poll_delay_rate``
    A periodic poll misses its deadline.  A *dropped* poll never reads
    the frozen bank before the next flip overwrites it — that set
    period's data is lost.  A *delayed* poll fires late but still reads
    its bank (deadline-aware catch-up): nothing is lost, the snapshot is
    just stale by the slip.
``torn_read_rate``
    A register read races the data plane and returns a slice of cells
    stale from the previous window cycle — exactly the hazard
    Algorithm 3's cycle-ID filter exists for, here pushed *past* what
    the filter can reconcile.
``corrupt_cell_rate``
    Bit-corrupted cells: TTS values whose cycle bits are impossible for
    the window's reference point.
``rpc_failure_rate``
    The whole read RPC fails (PCIe/driver hiccup); retryable.
``qm_drop_rate`` / ``qm_seq_regression_rate``
    A standalone queue-monitor poll is lost, or returns sequence
    numbers that regress below what the control plane already saw.

All rates are per-opportunity probabilities in ``[0, 1]``; mutually
exclusive outcomes (drop vs delay, torn vs corrupt vs RPC failure) must
sum to at most 1.  A plan with every rate 0 injects nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, Optional

from repro.errors import ConfigError

__all__ = ["FaultPlan", "PROFILES", "profile", "profile_names"]


@dataclass(frozen=True)
class FaultPlan:
    """One seeded scenario of control-plane faults (all hooks default off)."""

    name: str = "custom"
    seed: int = 0
    #: periodic (full) polls
    poll_drop_rate: float = 0.0
    poll_delay_rate: float = 0.0
    #: how far a delayed poll slips past its deadline; ``None`` means
    #: half a set period, and slips are clamped below one set period so
    #: a late poll never collides with the next one.
    poll_delay_ns: Optional[int] = None
    #: register-read attempts (full polls and on-demand reads)
    torn_read_rate: float = 0.0
    corrupt_cell_rate: float = 0.0
    rpc_failure_rate: float = 0.0
    #: most cells a single torn/corrupt read damages
    max_affected_cells: int = 8
    #: standalone queue-monitor polls
    qm_drop_rate: float = 0.0
    qm_seq_regression_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise ConfigError(
                        f"{f.name} must be a probability in [0, 1], got {value}"
                    )
        if self.poll_drop_rate + self.poll_delay_rate > 1.0:
            raise ConfigError("poll_drop_rate + poll_delay_rate exceeds 1")
        read = self.torn_read_rate + self.corrupt_cell_rate + self.rpc_failure_rate
        if read > 1.0:
            raise ConfigError("torn + corrupt + rpc failure rates exceed 1")
        if self.qm_drop_rate + self.qm_seq_regression_rate > 1.0:
            raise ConfigError("qm_drop_rate + qm_seq_regression_rate exceeds 1")
        if self.max_affected_cells < 1:
            raise ConfigError(
                f"max_affected_cells must be >= 1, got {self.max_affected_cells}"
            )
        if self.poll_delay_ns is not None and self.poll_delay_ns < 1:
            raise ConfigError("non-positive poll_delay_ns")

    @cached_property
    def enabled(self) -> bool:
        """Whether any fault can actually fire under this plan (every
        query asks, so it is computed once)."""
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name.endswith("_rate")
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same scenario re-seeded (per-port injectors of a deployment)."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line human summary of the non-zero knobs."""
        knobs = [
            f"{f.name.replace('_rate', '')}={getattr(self, f.name):g}"
            for f in fields(self)
            if f.name.endswith("_rate") and getattr(self, f.name) > 0.0
        ]
        return f"{self.name}: " + (", ".join(knobs) if knobs else "no faults")


#: Built-in scenario profiles (``repro faults list`` describes them).
PROFILES: Dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "flaky-rpc": FaultPlan(
        name="flaky-rpc",
        rpc_failure_rate=0.25,
    ),
    "torn-reads": FaultPlan(
        name="torn-reads",
        torn_read_rate=0.2,
        corrupt_cell_rate=0.05,
    ),
    "lossy-control": FaultPlan(
        name="lossy-control",
        poll_drop_rate=0.15,
        poll_delay_rate=0.15,
        qm_drop_rate=0.1,
    ),
    "qm-regression": FaultPlan(
        name="qm-regression",
        qm_seq_regression_rate=0.3,
    ),
    "chaos": FaultPlan(
        name="chaos",
        poll_drop_rate=0.1,
        poll_delay_rate=0.1,
        torn_read_rate=0.15,
        corrupt_cell_rate=0.1,
        rpc_failure_rate=0.15,
        qm_drop_rate=0.1,
        qm_seq_regression_rate=0.1,
    ),
}


def profile(name: str) -> FaultPlan:
    """Look up a built-in profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault profile {name!r}; choose from {profile_names()}"
        ) from None


def profile_names() -> list:
    """The built-in profile names, sorted (CLI choices / error messages)."""
    return sorted(PROFILES)
