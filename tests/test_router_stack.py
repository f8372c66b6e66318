"""``repro route`` and ``repro serve`` share one server stack.

The router is served by the same asyncio connection loop as a node, so the
wire behaviour (decode errors, limits, close behaviour) must be identical
on both; backend errors must cross the router unchanged; subscriptions are
refused at the router; ``RoutingClient`` shares ``ServiceClient``'s op
methods; and a connection's routed calls run one at a time even after a
router-side timeout leaves a call running.
"""

import json
import socket
import sys
import threading
import time
from collections import deque

import pytest

from repro.errors import ProtocolError, SubscriptionError
from repro.replication import RoutingClient
from repro.replication.router import RouterServer
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceServer

TC_PROGRAM = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y)."
SUB_QUERY = "define (X) -[reach]-> (Y) { (X) -[e+]-> (Y); }"


def start_server(**config_kwargs):
    config_kwargs.setdefault("port", 0)
    return ServiceServer(config=ServiceConfig(**config_kwargs)).start_background()


@pytest.fixture
def primary():
    server = start_server()
    yield server
    server.stop()


@pytest.fixture
def router(primary):
    router = RouterServer(f"127.0.0.1:{primary.port}").start()
    yield router
    router.stop()


@pytest.fixture(params=["serve", "route"])
def endpoint(request, primary):
    """The port of a ``serve`` node or of a ``route`` router in front of it."""
    if request.param == "serve":
        yield primary.port
        return
    router = RouterServer(f"127.0.0.1:{primary.port}").start()
    yield router.port
    router.stop()


class Wire:
    """A raw JSON-lines connection: bytes in, decoded lines out."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buffer = b""

    def send(self, data):
        self.sock.sendall(data)

    def line(self):
        """The next response line decoded, or None at EOF."""
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def request(self, message):
        self.send(protocol.encode(message))
        return self.line()

    def close(self):
        self.sock.close()


def decode_error(line):
    """The error response the shared decode path gives for *line*."""
    with pytest.raises(ProtocolError) as info:
        protocol.decode_request(line)
    return protocol.error_response(None, info.value)


# --------------------------------------------------------------------------
# Wire conformance: serve and route answer every malformed line alike
# --------------------------------------------------------------------------


BAD_LINES = {
    "invalid_utf8": b'{"id": 1, "op": "ping", "x": "\xff\xfe"}\n',
    "not_an_object": b"[1, 2, 3]\n",
    "unknown_op": b'{"id": 2, "op": "bogus"}\n',
    "bad_budget": b'{"id": 3, "op": "ping", "timeout": -1}\n',
    "malformed_trace": b'{"id": 4, "op": "ping", "trace": {"sampled": true}}\n',
}


class TestWireConformance:
    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_bad_line_gets_the_decode_error_and_connection_stays_open(
        self, endpoint, case
    ):
        line = BAD_LINES[case]
        expected = decode_error(line)
        assert expected["error"]["code"] == "protocol_error"
        wire = Wire(endpoint)
        try:
            wire.send(line)
            assert wire.line() == expected
            pong = wire.request({"id": 9, "op": "ping"})
            assert pong["id"] == 9 and pong["result"] == {"pong": True}
        finally:
            wire.close()

    def test_over_long_line_gets_one_error_then_close(self, endpoint):
        wire = Wire(endpoint)
        try:
            wire.send(b"x" * (protocol.MAX_REQUEST_BYTES + 1))
            assert wire.line() == {
                "id": None,
                "ok": False,
                "error": {
                    "code": "protocol_error",
                    "kind": "ProtocolError",
                    "message": "request line too long",
                },
            }
            assert wire.line() is None  # the server closed the connection
        finally:
            wire.close()

    def test_blank_lines_are_skipped(self, endpoint):
        wire = Wire(endpoint)
        try:
            wire.send(b"\n   \n\t\n" + protocol.encode({"id": 7, "op": "ping"}))
            response = wire.line()
            assert response["id"] == 7
            assert response["ok"] is True
            assert response["result"] == {"pong": True}
            # Exactly one response: the next line answers the next request.
            assert wire.request({"id": 8, "op": "ping"})["id"] == 8
        finally:
            wire.close()


# --------------------------------------------------------------------------
# Backend errors cross the router unchanged
# --------------------------------------------------------------------------


ERROR_REQUESTS = {
    "parse_error": {"id": 1, "op": "datalog", "query": "tc(X :- e("},
    "empty_update": {"id": 2, "op": "update"},
    "negative_max_rows": {"id": 3, "op": "datalog", "query": TC_PROGRAM, "max_rows": -1},
}


class TestErrorRelay:
    @pytest.mark.parametrize("case", sorted(ERROR_REQUESTS))
    def test_routed_error_equals_direct_error(self, primary, router, case):
        message = ERROR_REQUESTS[case]
        responses = []
        for port in (primary.port, router.port):
            wire = Wire(port)
            try:
                responses.append(wire.request(message))
            finally:
                wire.close()
        direct, routed = responses
        assert direct["ok"] is False
        assert routed == direct

    def test_parse_error_keeps_its_kind(self, primary, router):
        wire = Wire(router.port)
        try:
            error = wire.request(ERROR_REQUESTS["parse_error"])["error"]
        finally:
            wire.close()
        assert error["code"] == "service_error"
        assert error["kind"] == "ParseError"

    def test_clients_raise_the_same_error(self, primary, router):
        raised = []
        for port in (primary.port, router.port):
            with ServiceClient(port=port) as client:
                with pytest.raises(ProtocolError) as info:
                    client.update()
                raised.append(str(info.value))
        with RoutingClient(("127.0.0.1", primary.port)) as routing:
            with pytest.raises(ProtocolError) as info:
                routing.call("update")
            raised.append(str(info.value))
        assert len(set(raised)) == 1
        assert raised[0].count("ProtocolError") == 1


# --------------------------------------------------------------------------
# Subscriptions are refused at the router
# --------------------------------------------------------------------------


class TestRoutedSubscriptions:
    def test_router_refuses_subscribe_and_primary_holds_none(self, primary, router):
        with ServiceClient(port=router.port) as client:
            with pytest.raises(SubscriptionError, match="directly"):
                client.subscribe(SUB_QUERY)
            with pytest.raises(SubscriptionError):
                client.call("unsubscribe", subscription=1)
            assert client.ping() is True  # the connection survives
        with ServiceClient(port=primary.port) as client:
            client.update(edges=[["a", "e", "b"]])
            subs = client.stats()["subs"]
        assert subs["active_subscriptions"] == 0
        assert subs["deltas_pushed"] == 0

    def test_routing_client_refuses_subscribe(self, primary):
        with RoutingClient(("127.0.0.1", primary.port)) as routing:
            with pytest.raises(SubscriptionError) as info:
                routing.call("subscribe", query=SUB_QUERY)
        assert info.value.code == "subscription_error"
        assert primary.service.subs.stats()["active_subscriptions"] == 0


# --------------------------------------------------------------------------
# One client facade
# --------------------------------------------------------------------------


class TestRoutingFacade:
    def test_update_accepts_removals(self, primary):
        with RoutingClient(("127.0.0.1", primary.port)) as routing:
            routing.update(edges=[["a", "e", "b"], ["b", "e", "c"]])
            version = routing.update(remove_edges=[["b", "e", "c"]])
            assert version == 2
            assert routing.datalog(TC_PROGRAM)["tc"] == {("a", "b")}
            routing.update(remove_nodes=["a"])
            assert routing.datalog(TC_PROGRAM).get("tc", set()) == set()

    def test_single_node_ops_stay_off_the_routing_client(self):
        for name in ("promote", "repl_bootstrap", "repl_tail", "cluster_stats",
                     "subscribe", "unsubscribe"):
            assert not hasattr(RoutingClient, name), name
        for name in ("graphlog", "datalog", "rpq", "update", "explain",
                     "profile", "checkpoint", "stats", "ping"):
            assert getattr(RoutingClient, name) is getattr(ServiceClient, name)


# --------------------------------------------------------------------------
# One routed call at a time per connection
# --------------------------------------------------------------------------


class SlowNode:
    """A stand-in backend that answers each request *delay* seconds after
    reading it, echoing the request's ``tag``.  It counts its connections
    and the most requests it ever held unanswered on one connection."""

    def __init__(self, delay):
        self.delay = delay
        self.connections = 0
        self.max_pending = 0
        self._pending = 0
        self._lock = threading.Lock()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            queue = deque()
            ready = threading.Semaphore(0)
            threading.Thread(target=self._read, args=(conn, queue, ready), daemon=True).start()
            threading.Thread(target=self._answer, args=(conn, queue, ready), daemon=True).start()

    def _read(self, conn, queue, ready):
        with conn.makefile("rb") as lines:
            for line in lines:
                with self._lock:
                    self._pending += 1
                    self.max_pending = max(self.max_pending, self._pending)
                queue.append(json.loads(line))
                ready.release()

    def _answer(self, conn, queue, ready):
        while True:
            ready.acquire()
            message = queue.popleft()
            time.sleep(self.delay)
            with self._lock:
                self._pending -= 1
            result = {"pong": True, "tag": message.get("tag")}
            conn.sendall(protocol.encode(protocol.ok_response(message["id"], result, version=1)))

    def close(self):
        self.listener.close()


class TestOneCallPerConnection:
    def test_request_after_router_timeout_waits_for_the_running_call(self):
        node = SlowNode(delay=0.3)
        router = RouterServer(f"127.0.0.1:{node.port}").start()
        wire = Wire(router.port)
        try:
            first = wire.request({"id": 1, "op": "ping", "tag": "first", "timeout": 0.05})
            assert first["id"] == 1
            assert first["error"]["code"] == "timeout"
            # Sent at once, while the first call still waits on the node.
            second = wire.request({"id": 2, "op": "ping", "tag": "second"})
            assert second["id"] == 2
            assert second["result"] == {"pong": True, "tag": "second"}
            third = wire.request({"id": 3, "op": "ping", "tag": "third"})
            assert third["result"]["tag"] == "third"
            assert router.router_totals()["ejections"] == 0
            assert node.connections == 1  # never poisoned, never reconnected
            assert node.max_pending == 1  # the calls never overlapped
        finally:
            wire.close()
            router.stop()
            node.close()

    def test_closed_connection_folds_its_counters(self, primary, router):
        with ServiceClient(port=router.port) as client:
            client.update(edges=[["a", "e", "b"]])
            client.datalog(TC_PROGRAM)
        deadline = time.monotonic() + 5
        while router._sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not router._sessions
        totals = router.router_totals()
        assert totals["writes_routed"] == 1
        assert totals["reads_routed"] == 1
        assert router.connections == 1


class TestSessionStress:
    def test_concurrent_connections_fold_every_counter(self, primary, router):
        # More connections than the router's 8 workers, more workers than
        # cores, and a short switch interval: a lost session or a lost fold
        # shows up as a wrong total.
        clients, reads = 12, 5
        with ServiceClient(port=primary.port) as writer:
            writer.update(edges=[["a", "e", "b"]])
        errors = []

        def connection():
            try:
                with ServiceClient(port=router.port) as client:
                    for _ in range(reads):
                        assert client.datalog(TC_PROGRAM)["tc"] == {("a", "b")}
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=connection) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        deadline = time.monotonic() + 5
        while router._sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not router._sessions
        assert router.connections == clients
        assert router.router_totals()["reads_routed"] == clients * reads


def test_routed_response_carries_backend_version_cache_and_own_elapsed(
    primary, router
):
    with ServiceClient(port=router.port) as client:
        client.update(edges=[["a", "e", "b"]])
        client.call("datalog", query=TC_PROGRAM)
        response = client.call("datalog", query=TC_PROGRAM)
    assert response["version"] == 1
    assert response["cache"] == "hit"
    assert response["elapsed_ms"] >= 0
