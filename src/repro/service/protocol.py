"""JSON-lines wire protocol for the query service.

One request per line, one response per line, both UTF-8 JSON objects.

Request::

    {"id": 7, "op": "graphlog", "query": "define ...", ...}

``op`` is one of :data:`OPS`; every other field is the operation's payload
(see :mod:`repro.service.server` for per-op fields).  ``id`` is optional and
echoed back verbatim so pipelined clients can match responses.

Response (success)::

    {"id": 7, "ok": true, "result": {...}, "elapsed_ms": 1.93, "version": 4}

Response (failure)::

    {"id": 7, "ok": false, "error": {"code": "timeout", "message": "..."}}

Error ``code`` values mirror the :mod:`repro.errors` service taxonomy:
``protocol_error``, ``timeout``, ``result_too_large``, ``service_error``
(evaluation-layer failures keep their exception class name in ``kind``).

Push frames
-----------

Subscriptions (:mod:`repro.subs`) add a third message class: asynchronous
server-push *frames* interleaved with responses on the same connection.
A frame is distinguished by its ``"frame"`` key and never carries ``id``
or ``ok``, so clients demultiplex on one field::

    {"frame": "delta", "subscription": 3, "version": 12,
     "inserted": {"reach": [["a","c"]]}, "deleted": {}}
    {"frame": "snapshot", "subscription": 3, "version": 17,
     "relations": {"reach": [...]}, "resync": true}
    {"frame": "closed", "subscription": 3, "reason": "overflow"}

``delta`` frames are emitted in strictly increasing ``version`` order per
subscription; a ``snapshot`` frame with ``resync`` replaces the client's
materialized state wholesale (sent after queue overflow under the
``resync`` policy — deltas are never silently skipped).
"""

from __future__ import annotations

import json
import math

from repro.errors import (
    NotMaintainable,
    ProtocolError,
    QueryTimeout,
    ReadOnlyError,
    ReplicaStale,
    ResultTooLarge,
    ServiceError,
    SubscriptionError,
)

#: The operations a server understands.
OPS = (
    "graphlog",
    "datalog",
    "rpq",
    "update",
    "stats",
    "ping",
    "explain",
    "profile",
    "checkpoint",
    "slowlog",
    "repl_bootstrap",
    "repl_tail",
    "promote",
    "subscribe",
    "unsubscribe",
    "trace_get",
    "cluster_stats",
)

#: The push-frame kinds a server emits (see module docstring).
FRAMES = ("delta", "snapshot", "closed")

#: Maximum accepted request-line length (a protocol-level DoS guard).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

_CODE_TO_EXCEPTION = {
    "protocol_error": ProtocolError,
    "timeout": QueryTimeout,
    "result_too_large": ResultTooLarge,
    "read_only": ReadOnlyError,
    "replica_stale": ReplicaStale,
    "not_maintainable": NotMaintainable,
    "subscription_error": SubscriptionError,
    "service_error": ServiceError,
}


class RawJSON:
    """A value already serialized by :func:`encode_json`.

    Placed as a message's ``result``, it is written verbatim by
    :func:`encode`: a cached answer is serialized once, when it is cached,
    not once per response that carries it.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


def encode_json(value):
    """The compact, key-sorted JSON bytes of one value (no newline)."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True).encode("utf-8")


def encode(message):
    """Serialize one protocol message to a newline-terminated bytes line.

    A :class:`RawJSON` ``result`` is spliced between the envelope fields
    that sort before and after ``"result"``; the line is byte-identical to
    encoding the decoded result in place.
    """
    result = message.get("result")
    if type(result) is not RawJSON:
        return encode_json(message) + b"\n"
    head = encode_json({k: v for k, v in message.items() if k < "result"})
    tail = encode_json({k: v for k, v in message.items() if k > "result"})
    # head always holds "id" and "ok"; tail is "{}" when no field sorts
    # after "result".
    return b"".join(
        (
            head[:-1],
            b',"result":',
            result.data,
            b"," + tail[1:] if len(tail) > 2 else b"}",
            b"\n",
        )
    )


def decode_request(line):
    """Parse one request line into a dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(message).__name__}")
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {', '.join(OPS)}")
    validate_budgets(message)
    trace = message.get("trace")
    if trace is not None:
        # Validate eagerly so a malformed context is the sender's
        # protocol_error, not a mid-request service_error.
        from repro.obs.context import TraceContext

        TraceContext.from_wire(trace)
    return message


def validate_budgets(message):
    """Type/range-check the per-request budget fields at decode time.

    A string or negative ``timeout`` used to reach ``asyncio.wait_for`` and
    surface as ``errors.internal``; budgets are protocol-level inputs, so a
    bad one is the *client's* error and must be a ``protocol_error``.
    Booleans are rejected explicitly (``True`` is an ``int`` in Python, and
    a request saying ``"max_rows": true`` is a bug, not a budget).
    """
    timeout = message.get("timeout")
    if timeout is not None:
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not math.isfinite(timeout)
            or timeout < 0
        ):
            raise ProtocolError(
                f"'timeout' must be a non-negative finite number, got {timeout!r}"
            )
    for field in (
        "max_rows",
        "max_bytes",
        "min_version",
        "from_version",
        "max_records",
        "wait_ms",
        "queue_max",
        "subscription",
    ):
        value = message.get(field)
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ProtocolError(
                    f"{field!r} must be a non-negative integer, got {value!r}"
                )


def ok_response(
    request_id, result, version=None, elapsed_ms=None, cache=None, trace_id=None
):
    response = {"id": request_id, "ok": True, "result": result}
    if version is not None:
        response["version"] = version
    if elapsed_ms is not None:
        response["elapsed_ms"] = round(elapsed_ms, 3)
    if cache is not None:
        response["cache"] = cache
    if trace_id is not None:
        response["trace_id"] = trace_id
    return response


def error_response(request_id, exc):
    """Build the failure response for an exception; an error another server
    sent (re-raised by :func:`raise_for_error`) is relayed exactly as sent."""
    error = getattr(exc, "wire_error", None) or {
        "code": getattr(exc, "code", None) or "service_error",
        "kind": type(exc).__name__,
        "message": str(exc),
    }
    return {"id": request_id, "ok": False, "error": error}


def raise_for_error(response):
    """Re-raise the service-side error carried by a failure response.

    The client uses this to surface server errors as the same exception
    types the library raises locally: protocol violations, timeouts and
    size overruns map to their dedicated classes; evaluation errors
    (parse/safety/stratification/...) surface as :class:`ServiceError`
    with the original class name in the message.  The exception keeps the
    ``error`` object as ``wire_error``, which a router relays unchanged.
    """
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    code = error.get("code", "service_error")
    message = error.get("message", "unknown server error")
    kind = error.get("kind")
    if kind and kind != code:
        message = f"{kind}: {message}"
    exc = _CODE_TO_EXCEPTION.get(code, ServiceError)(message)
    exc.wire_error = error
    raise exc


def rows_to_wire(rows):
    """Sort a set of answer tuples into JSON-friendly lists (deterministic)."""
    return [list(row) for row in sorted(rows, key=_row_key)]


def _row_key(row):
    return tuple((type(value).__name__, str(value)) for value in row)


# --------------------------------------------------------------- push frames


def is_push_frame(message):
    """True when *message* is a server-push frame (vs a response)."""
    return isinstance(message, dict) and "frame" in message


def delta_frame(subscription_id, version, inserted, deleted, trace_id=None):
    """One incremental update: net row changes at *version*.

    ``inserted``/``deleted`` are ``{predicate: [rows...]}`` with rows in
    :func:`rows_to_wire` order.  ``trace_id`` links the frame to the
    distributed trace of the commit that produced it.
    """
    frame = {
        "frame": "delta",
        "subscription": subscription_id,
        "version": version,
        "inserted": {pred: rows_to_wire(rows) for pred, rows in inserted.items()},
        "deleted": {pred: rows_to_wire(rows) for pred, rows in deleted.items()},
    }
    if trace_id is not None:
        frame["trace_id"] = trace_id
    return frame


def snapshot_frame(subscription_id, version, relations, resync=False):
    """A full result set at *version*; with ``resync`` it replaces any
    previously applied state (sent after overflow under the resync policy)."""
    frame = {
        "frame": "snapshot",
        "subscription": subscription_id,
        "version": version,
        "relations": {pred: rows_to_wire(rows) for pred, rows in relations.items()},
    }
    if resync:
        frame["resync"] = True
    return frame


def closed_frame(subscription_id, reason):
    """The server terminated the subscription (overflow/shutdown/resync
    failure); no further frames will arrive for this id."""
    return {"frame": "closed", "subscription": subscription_id, "reason": reason}
