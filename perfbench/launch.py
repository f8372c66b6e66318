"""Start one ``repro serve`` / ``repro route`` process for the benchmark.

Usage (from the checkout root; ``cluster.py`` sets the same PYTHONPATH)::

    PYTHONPATH=src python3 perfbench/launch.py serve --port 0 ...
    PYTHONPATH=src python3 perfbench/launch.py route --port 0 --primary HOST:PORT ...

The arguments are passed unchanged to ``repro.cli.main``, so the process is
the real server.  Two signals switch an in-memory span recorder:

- ``SIGUSR1`` wraps the public function of each layer (``LAYERS``) and
  starts recording one span per call;
- ``SIGUSR2`` restores the original functions.

Before the switch, the process runs exactly the unwrapped program, which is
what the untraced (end-to-end) measurements see.  After each switch the
launcher writes ``1`` or ``0`` to ``$PERFBENCH_SPANS.state``, so the
benchmark knows the switch has happened.  At exit the spans are written as
JSON lines to ``$PERFBENCH_SPANS``:
``[span_id, parent_id, name, start, end, request_id, size]``.  The
timestamps come from ``time.perf_counter``.  ``size`` is the byte length
returned by ``protocol.encode`` and is null for every other span.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys
import threading
import time

#: (module, attribute path, span name) for every wrapped layer function.
LAYERS = (
    ("repro.service.protocol", "decode_request", "protocol.decode"),
    ("repro.service.protocol", "encode", "protocol.encode"),
    ("repro.service.server", "QueryService.execute", "server.execute"),
    ("repro.service.prepared", "PreparedQueryCache.get", "prepared.plan"),
    ("repro.service.prepared", "PreparedQuery.evaluate", "prepared.evaluate"),
    ("repro.service.cache", "ResultCache.get", "cache.lookup"),
    ("repro.service.cache", "ResultCache.apply_commit", "cache.apply_commit"),
    ("repro.graphs.bridge", "database_from_graph", "bridge.edb_build"),
    ("repro.datalog.columnar", "encode_database", "columnar.encode_db"),
    ("repro.ham.store", "Transaction.commit", "store.commit"),
    ("repro.graphs.multigraph", "LabeledMultigraph.copy", "store.graph_copy"),
    ("repro.ham.delta", "compute_delta", "store.delta"),
    ("repro.persist.manager", "DurabilityManager.log_commit", "persist.wal_append"),
    ("repro.datalog.dred", "MaintenancePlan.maintain", "dred.maintain"),
    ("repro.subs.manager", "SubscriptionManager.drain", "subs.drain"),
    ("repro.replication.primary", "ReplicationSource.tail", "repl.tail"),
    ("repro.ham.store", "HAMStore.apply_replicated", "repl.apply"),
    ("repro.replication.router", "RoutingClient.call", "router.route"),
    ("repro.service.client", "ServiceClient.call", "client.call"),
)


class SpanRecorder:
    """Wraps layer functions and keeps one span per call in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        #: id(decoded message) -> (decode end time, request id); consumed by
        #: the matching ``QueryService.execute`` call in a worker thread.
        self._decoded = {}
        self._patched = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, function):
        recorder = self
        ids = self._ids
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = 0, recorder._root_request(name, args)
            span_id = next(ids)
            stack.append((span_id, request))
            start = clock()
            size = None
            try:
                result = function(*args, **kwargs)
                if name == "protocol.encode":
                    size = len(result)
                elif name == "protocol.decode":
                    recorder._decoded[id(result)] = (clock(), request)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, request, size))

        return traced

    def _root_request(self, name, args):
        """The request id of a span with no parent on its thread.

        ``QueryService.execute`` adopts the id its message was decoded
        under and records the executor hop (decode end -> execute start)
        as a ``server.executor_wait`` span.
        """
        if name == "server.execute" and len(args) > 1:
            decoded = self._decoded.pop(id(args[1]), None)
            if decoded is not None:
                decoded_at, request = decoded
                self.spans.append(
                    (next(self._ids), 0, "server.executor_wait", decoded_at,
                     time.perf_counter(), request, None)
                )
                return request
        return next(self._requests)

    def install(self):
        """Replace every layer function (and each module-level binding of
        it under ``repro``) with its traced wrapper."""
        if self._patched:
            return
        self._decoded.clear()
        for module_name, path, name in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # the layer is not loaded in this process
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            traced = self._wrap(name, original)
            self._patch(owner, attr, traced, original)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if other is module or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, traced, original)

    def _patch(self, owner, attr, traced, original):
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def main(argv):
    from repro import cli

    span_path = os.environ.get("PERFBENCH_SPANS")
    recorder = SpanRecorder()

    def switch(on):
        def handler(_signum, _frame):
            if on:
                recorder.install()
            else:
                recorder.uninstall()
            if span_path:
                with open(span_path + ".state", "w") as handle:
                    handle.write("1" if on else "0")

        return handler

    signal.signal(signal.SIGUSR1, switch(True))
    signal.signal(signal.SIGUSR2, switch(False))
    try:
        return cli.main(argv)
    except KeyboardInterrupt:
        return 0
    finally:
        recorder.uninstall()
        if span_path:
            recorder.dump(span_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
