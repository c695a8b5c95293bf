"""The service wire protocol: JSON lines over a local stream socket.

One request per line, one response per line, UTF-8 JSON with no
embedded newlines.  Requests carry ``op`` (``ping`` / ``status`` /
``query``) and an optional ``id`` echoed back verbatim.  Responses are
either ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
{...}}`` where the error object round-trips the service's typed
exception hierarchy — the client re-raises the same
:class:`~repro.errors.ServiceError` subclasses the server raised, with
``retry_after_ms`` / ``stage`` intact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Type

from repro.errors import (
    IngestFailed,
    QueryError,
    ReproError,
    ServiceDegradedRejection,
    ServiceError,
    ServiceOverloadError,
    ServiceShuttingDown,
)

#: Exception types that cross the wire by name (everything else is
#: flattened to the ``ServiceError`` base on the client side).
ERROR_TYPES: Dict[str, Type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ServiceOverloadError,
        ServiceDegradedRejection,
        ServiceShuttingDown,
        IngestFailed,
        QueryError,
        ServiceError,
    )
}


def encode(payload: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises ``QueryError`` on malformed input.

    ``ValueError`` covers bad UTF-8, bad JSON and an integer past
    Python's digit limit; ``RecursionError`` a line nested too deep.
    """
    try:
        payload = json.loads(line.decode())
    except (ValueError, RecursionError) as exc:
        raise QueryError(f"malformed request line: {exc}") from exc
    if not isinstance(payload, dict):
        raise QueryError(f"request must be a JSON object, got {type(payload).__name__}")
    return payload


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Serialise an exception into the wire error object."""
    payload: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after_ms", None)
    if retry_after:
        payload["retry_after_ms"] = retry_after
    stage = getattr(exc, "stage", None)
    if stage:
        payload["stage"] = stage
    return payload


def raise_error(payload: Dict[str, Any]) -> None:
    """Re-raise a wire error object as its typed exception (client side)."""
    name = str(payload.get("type", "ServiceError"))
    message = str(payload.get("message", "service error"))
    cls = ERROR_TYPES.get(name, ServiceError)
    if cls is ServiceOverloadError:
        raise ServiceOverloadError(
            message, retry_after_ms=float(payload.get("retry_after_ms", 0.0))
        )
    if cls is ServiceDegradedRejection:
        raise ServiceDegradedRejection(
            message,
            stage=str(payload.get("stage", "")),
            retry_after_ms=float(payload.get("retry_after_ms", 0.0)),
        )
    raise cls(message)
