"""Exception hierarchy for the PrintQueue reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """A structurally invalid configuration (bad k/alpha/T, port counts...)."""


class SimulationError(ReproError):
    """The switch simulator was driven into an inconsistent state."""


class QueryError(ReproError):
    """A diagnosis query could not be executed (bad interval, no snapshot)."""


class RegisterError(ReproError):
    """Invalid register access (bank locked, out-of-range index...)."""


class DecodeError(ReproError):
    """A baseline structure (e.g. FlowRadar) failed to decode its state."""


class StoreError(ReproError):
    """A snapshot store operation failed (bad backend state, corrupt or
    incompatible recording, replay mismatch)."""


class ServiceError(ReproError):
    """Base class for always-on diagnosis-service errors."""


class ServiceOverloadError(ServiceError):
    """Admission control rejected a request (queue full or rate-limited).

    Carries ``retry_after_ms``, the server's hint for when capacity is
    expected back — the wire protocol maps it to a ``Retry-After``-style
    field so clients can back off instead of hammering a saturated
    front door.
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServiceDegradedRejection(ServiceError):
    """The service is in a degraded stage that cannot serve this request.

    Unlike :class:`ServiceOverloadError` this is not about queue space:
    the request *kind* (e.g. a queue-monitor walk or an on-demand
    data-plane read) is shed in the current degradation stage.  Carries
    ``retry_after_ms`` and the ``stage`` name so clients can retry once
    the service recovers.
    """

    def __init__(
        self, message: str, stage: str = "", retry_after_ms: float = 0.0
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.retry_after_ms = retry_after_ms


class ServiceShuttingDown(ServiceError):
    """The service is draining and no longer admits new requests."""


class IngestFailed(ServiceError):
    """The supervised live-ingest task died past its restart budget."""
