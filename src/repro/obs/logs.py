"""Structured logging with per-request correlation IDs.

Library modules (``repro.ham``, ``repro.persist``, ``repro.datalog``) log
through plain module loggers — ``logging.getLogger(__name__)`` — and never
install handlers or call ``basicConfig``; the ``repro`` package root carries
a :class:`logging.NullHandler` so an embedding application sees no output it
did not ask for.  Handler/formatter setup happens in exactly one place: the
CLI entry point calls :func:`configure_logging`.

Request correlation: the service assigns every wire request an ID (a short
random run prefix plus a monotonically increasing counter — deliberately
not ``uuid4`` per request, which would cost ~1µs on a ~20µs cache hit)
and stores it in a :mod:`contextvars` context variable.  Every log record
emitted while the variable is set — from the server, the engine, DRed
maintenance, or the WAL — is stamped with it by :class:`RequestIdFilter`,
so one ``grep`` over the JSON logs reconstructs a request's full story.

Note that contextvars do **not** automatically propagate into
``loop.run_in_executor`` worker threads; the service sets the variable
explicitly around the inline call of a hit answered on the event loop and
inside the worker closure otherwise (see ``service/server.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import logging
import os
import sys
import time

_REQUEST_ID = contextvars.ContextVar("repro_request_id", default=None)

# One short random prefix per process so IDs from different service runs
# never collide in shared log storage; the counter keeps per-request cost
# to one integer increment.  A service with a stable node identity swaps
# the random prefix for its node id via set_node_prefix(), making request
# ids cluster-unique and attributable.
_RUN_PREFIX = os.urandom(3).hex()
_COUNTER = itertools.count(1)

# The node id once set_node_prefix() has run; stamped onto JSON log records.
_NODE_ID = None


def new_request_id():
    """A fresh process-unique request ID, e.g. ``"a3f1b2-000017"``."""
    return f"{_RUN_PREFIX}-{next(_COUNTER):06d}"


def set_node_prefix(node_id):
    """Prefix all future request ids with *node_id* and stamp JSON logs.

    Process-global on purpose: the id identifies the *process* in a
    cluster.  When several services share one process (tests), the last
    call wins for log stamping — each service object still carries its own
    ``node_id`` attribute for stats and traces.
    """
    global _RUN_PREFIX, _NODE_ID
    _RUN_PREFIX = str(node_id)
    _NODE_ID = str(node_id)


def get_node_id():
    """The process's node id, or ``None`` before :func:`set_node_prefix`."""
    return _NODE_ID


def get_request_id():
    """The ambient request ID, or ``None`` outside any request."""
    return _REQUEST_ID.get()


def set_request_id(request_id):
    """Bind *request_id* in this context; returns a token for reset."""
    return _REQUEST_ID.set(request_id)


def reset_request_id(token):
    _REQUEST_ID.reset(token)


@contextlib.contextmanager
def request_context(request_id=None):
    """Run a block with *request_id* (fresh if ``None``) as the ambient ID."""
    rid = request_id if request_id is not None else new_request_id()
    token = _REQUEST_ID.set(rid)
    try:
        yield rid
    finally:
        _REQUEST_ID.reset(token)


class RequestIdFilter(logging.Filter):
    """Stamp every record with the ambient request ID (``"-"`` outside)."""

    def filter(self, record):
        rid = _REQUEST_ID.get()
        record.request_id = rid if rid is not None else "-"
        return True


#: LogRecord attributes that are plumbing, not user payload — anything else
#: passed via ``logger.info(..., extra={...})`` lands in the JSON output.
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"request_id", "message", "asctime", "taskName"}


class JsonLogFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, message, request_id,
    any ``extra=`` fields, and a formatted traceback when present."""

    def format(self, record):
        payload = {
            "ts": round(record.created, 6),
            "time": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.gmtime(record.created)
            ) + f".{int(record.msecs):03d}Z",
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
            "request_id": getattr(record, "request_id", None) or "-",
        }
        if _NODE_ID is not None:
            payload["node"] = _NODE_ID
        for key, value in record.__dict__.items():
            if key not in _RESERVED and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, separators=(",", ":"))


class TextLogFormatter(logging.Formatter):
    """Human-oriented single-line format carrying the request ID."""

    def __init__(self):
        super().__init__(
            "%(asctime)s %(levelname)-7s [%(request_id)s] %(name)s: %(message)s",
            datefmt="%H:%M:%S",
        )


_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}


def configure_logging(level="warning", json_output=False, stream=None):
    """Install one handler on the ``repro`` logger (CLI entry points only).

    Idempotent: a handler installed by a previous call is replaced, not
    stacked, so repeated ``main()`` invocations (tests, embedding) do not
    duplicate output.  Propagation to the root logger is deliberately left
    on so test harnesses (pytest ``caplog``) keep seeing records.
    """
    if isinstance(level, str):
        try:
            numeric = _LEVELS[level.lower()]
        except KeyError:
            raise ValueError(
                f"unknown log level {level!r}; choose from {sorted(_LEVELS)}"
            ) from None
    else:
        numeric = int(level)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter() if json_output else TextLogFormatter())
    handler.addFilter(RequestIdFilter())
    handler._repro_cli_handler = True

    package_logger = logging.getLogger("repro")
    for existing in list(package_logger.handlers):
        if getattr(existing, "_repro_cli_handler", False):
            package_logger.removeHandler(existing)
    package_logger.addHandler(handler)
    package_logger.setLevel(numeric)
    return handler
