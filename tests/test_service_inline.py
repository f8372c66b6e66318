"""Cache hits answered on the event loop, from pre-encoded answer bytes.

A query whose plan and result are cached and current is answered by the
server's event loop itself; everything else (misses, plan preparation,
``min_version`` waits, sampled traces, other ops) runs on a worker.  These
tests pin the wire bytes, the bookkeeping (every request counted once), and
the loop's limits: it never takes the store's commit lock, never waits,
still honours ``timeout``, and yields between pipelined answers.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.flights import figure1_database
from repro.errors import QueryTimeout
from repro.graphs.bridge import graph_from_database
from repro.ham.store import HAMStore
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import HandOff, QueryService, ServiceConfig, ServiceServer

CONN_PROGRAM = "conn(X, Y) :- from(F, X), to(F, Y)."
RPQ = "(-from . to)+"


def flights_store():
    store = HAMStore()
    store.load_graph(graph_from_database(figure1_database()))
    return store


def start_server(service=None, **config):
    config = ServiceConfig(**{"port": 0, "workers": 2, "timeout": 10.0, **config})
    service = service or QueryService(store=flights_store(), config=config)
    return ServiceServer(service=service, config=config).start_background()


class Wire:
    """A raw JSON-lines connection: exact response bytes, no client logic."""

    def __init__(self, port, timeout=10.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def send(self, message):
        self.sock.sendall(protocol.encode(message))

    def line(self):
        return self.reader.readline()

    def request(self, message):
        self.send(message)
        return json.loads(self.line())

    def close(self):
        self.reader.close()
        self.sock.close()


# ------------------------------------------------------------ wire bytes

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

answers = st.fixed_dictionaries(
    {
        "count": st.integers(min_value=0),
        "relations": st.dictionaries(
            st.text(max_size=8),
            st.lists(st.lists(st.text() | st.integers(), max_size=3), max_size=4),
            max_size=3,
        ),
    },
    optional={"extra": json_values},
)


@settings(max_examples=200, deadline=None)
@given(
    request_id=json_values,
    result=answers,
    version=st.none() | st.integers(min_value=0),
    elapsed_ms=st.none() | st.floats(min_value=0, max_value=1e6),
    cache=st.none() | st.sampled_from(["hit", "miss", "bypass"]),
    trace_id=st.none() | st.text(),
)
def test_spliced_result_is_byte_identical(
    request_id, result, version, elapsed_ms, cache, trace_id
):
    fields = dict(version=version, elapsed_ms=elapsed_ms, cache=cache, trace_id=trace_id)
    raw = protocol.RawJSON(protocol.encode_json(result))
    spliced = protocol.encode(protocol.ok_response(request_id, raw, **fields))
    assert spliced == protocol.encode(protocol.ok_response(request_id, result, **fields))
    assert spliced == (
        json.dumps(
            protocol.ok_response(request_id, result, **fields),
            separators=(",", ":"),
            sort_keys=True,
        )
        + "\n"
    ).encode("utf-8")


def test_spliced_result_with_non_ascii_and_nesting():
    result = {"relations": {"reach": [["Montréal", "東京"], ["a", {"b": [1]}]]}, "count": 2}
    raw = protocol.RawJSON(protocol.encode_json(result))
    for request_id in (None, 7, "ü", [1, {"z": None, "a": True}]):
        assert protocol.encode(protocol.ok_response(request_id, raw)) == protocol.encode(
            protocol.ok_response(request_id, result)
        )


def test_one_answer_encode_per_miss_and_none_per_hit(monkeypatch):
    answer_encodes = []
    dumps = json.dumps

    def counting(obj, *args, **kwargs):
        if isinstance(obj, dict) and "relations" in obj:
            answer_encodes.append(obj)
        return dumps(obj, *args, **kwargs)

    server = start_server()
    try:
        with ServiceClient(port=server.port) as client:
            monkeypatch.setattr(json, "dumps", counting)
            first = client.call("datalog", query=CONN_PROGRAM)
            assert first["cache"] == "miss"
            assert len(answer_encodes) == 1
            for _ in range(5):
                assert client.call("datalog", query=CONN_PROGRAM)["cache"] == "hit"
            assert len(answer_encodes) == 1
            monkeypatch.undo()
    finally:
        server.stop()


def test_wire_response_matches_in_process_encode():
    """Hit and miss lines are exactly what encoding the decoded result
    gives; only elapsed_ms varies per request."""
    server = start_server()
    wire = Wire(server.port)
    try:
        for cache in ("miss", "hit"):
            wire.send({"id": {"k": "é"}, "op": "rpq", "query": RPQ})
            line = wire.line()
            response = json.loads(line)
            assert response["cache"] == cache
            assert line == protocol.encode(response)
            rows = response["result"]["relations"]["answers"]
            assert ["toronto", "new-york"] in rows
    finally:
        wire.close()
        server.stop()


def test_execute_returns_decoded_result_in_process():
    service = QueryService(store=flights_store())
    try:
        for cache in ("miss", "hit"):
            body = service.execute({"op": "datalog", "query": CONN_PROGRAM})
            assert body["cache"] == cache
            assert isinstance(body["result"], dict)
            assert ["toronto", "ottawa"] in body["result"]["relations"]["conn"]
            assert json.loads(body["result_json"].data) == body["result"]
    finally:
        service.close()


# ----------------------------------------------------------- bookkeeping


class TestInlineExecute:
    def test_hit_answers_inline_and_counts_once(self):
        service = QueryService(store=flights_store())
        try:
            message = {"op": "datalog", "query": CONN_PROGRAM}
            service.execute(message)
            before = service.stats()
            body = service.execute(message, inline=True)
            after = service.stats()
            assert body["cache"] == "hit"
            delta = lambda section, key: after[section][key] - before[section][key]
            assert delta("plan_cache", "hits") == 1
            assert delta("result_cache", "hits") == 1
            assert delta("result_cache", "misses") == 0
            assert (
                after["metrics"]["counters"]["requests.datalog"]
                - before["metrics"]["counters"]["requests.datalog"]
            ) == 1
        finally:
            service.close()

    @pytest.mark.parametrize("warm_plan", [False, True])
    def test_miss_hands_off_and_resume_counts_once(self, warm_plan):
        service = QueryService(store=flights_store())
        try:
            message = {"op": "datalog", "query": CONN_PROGRAM}
            if warm_plan:
                service.plans.get("datalog", CONN_PROGRAM)
            before = service.stats()
            with pytest.raises(HandOff) as handoff:
                service.execute(message, inline=True)
            assert (handoff.value.plan is not None) == warm_plan
            untouched = service.stats()
            assert untouched["result_cache"] == before["result_cache"]
            assert untouched["metrics"]["counters"] == before["metrics"]["counters"]
            assert untouched["metrics"]["phases"] == before["metrics"]["phases"]
            assert untouched["metrics"]["in_flight"] == 0

            body = service.execute(message, resume=handoff.value)
            after = service.stats()
            assert body["cache"] == "miss"
            assert after["result_cache"]["misses"] - before["result_cache"]["misses"] == 1
            # One plan lookup in all: the attempt's hit, carried into the
            # resumed run, or the resumed run's miss.
            plans = {
                key: after["plan_cache"][key] - before["plan_cache"][key]
                for key in ("hits", "misses")
            }
            assert plans == ({"hits": 1, "misses": 0} if warm_plan else {"hits": 0, "misses": 1})
            assert after["metrics"]["counters"]["requests.datalog"] == 1
            assert after["metrics"]["phases"]["cache_lookup"]["count"] == 1
        finally:
            service.close()

    def test_non_query_ops_and_min_version_hand_off(self):
        service = QueryService(store=flights_store())
        try:
            message = {"op": "datalog", "query": CONN_PROGRAM}
            service.execute(message)
            with pytest.raises(HandOff):
                service.execute({"op": "ping"}, inline=True)
            ahead = dict(message, min_version=service.store.version + 1)
            with pytest.raises(HandOff):
                service.execute(ahead, inline=True)
            current = dict(message, min_version=service.store.version)
            assert service.execute(current, inline=True)["cache"] == "hit"
        finally:
            service.close()

    def test_sampled_request_hands_off_and_samples_once(self):
        service = QueryService(
            store=flights_store(), config=ServiceConfig(trace_sample=0.5)
        )
        try:
            message = {"op": "datalog", "query": CONN_PROGRAM}
            service.execute(message)  # tick 1: not sampled; warms the caches
            with pytest.raises(HandOff) as handoff:
                service.execute(message, inline=True)  # tick 2: sampled
            assert handoff.value.context is not None and handoff.value.context.sampled
            body = service.execute(message, resume=handoff.value)
            assert body["trace_id"] == handoff.value.context.trace_id
            assert service.metrics.counter("trace.sampled") == 1
            # The resumed run did not tick the sampler: the next is tick 3.
            assert "trace_id" not in service.execute(message, inline=True)
        finally:
            service.close()


# ------------------------------------------------------------ loop limits


class TestLoopLimits:
    def test_hit_answered_while_a_commit_holds_the_store_lock(self, tmp_path):
        config = ServiceConfig(
            port=0, workers=2, timeout=10.0, data_dir=str(tmp_path), fsync="always"
        )
        service = QueryService(store=flights_store(), config=config)
        server = ServiceServer(service=service, config=config).start_background()
        in_fsync = threading.Event()
        release = threading.Event()
        log_commit = service.durability.log_commit

        def stalled_log_commit(record):
            in_fsync.set()
            release.wait(10)
            return log_commit(record)

        service.durability.log_commit = stalled_log_commit

        def commit():
            with ServiceClient(port=server.port) as writer_client:
                writer_client.update(edges=[["x", "from", "y"]])

        writer = None
        try:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                warm = client.call("rpq", query=RPQ, source="toronto")
                writer = threading.Thread(target=commit)
                writer.start()
                assert in_fsync.wait(5)
                assert service.store._lock.locked()
                hit = client.call("rpq", query=RPQ, source="toronto")
                assert hit["cache"] == "hit"
                assert hit["version"] == warm["version"]
                assert hit["result"] == warm["result"]
                assert service.store._lock.locked()
                release.set()
                writer.join(10)
                assert client.call("ping")["version"] == warm["version"] + 1
        finally:
            release.set()
            if writer is not None:
                writer.join(10)
            server.stop()

    def test_miss_runs_on_a_worker_bounded_by_timeout(self, monkeypatch):
        from repro.service.prepared import PreparedQuery

        evaluate = PreparedQuery.evaluate

        def slow_evaluate(self, graph, edb, params):
            time.sleep(1.0)
            return evaluate(self, graph, edb, params)

        server = start_server()
        service = server.service
        monkeypatch.setattr(PreparedQuery, "evaluate", slow_evaluate)
        try:
            with ServiceClient(port=server.port, timeout=5.0) as client, ServiceClient(
                port=server.port, timeout=5.0
            ) as other:
                outcome = {}

                def slow_query():
                    started = time.perf_counter()
                    try:
                        client.call("datalog", query=CONN_PROGRAM, timeout=0.3)
                    except QueryTimeout:
                        outcome["timeout"] = time.perf_counter() - started

                thread = threading.Thread(target=slow_query)
                thread.start()
                time.sleep(0.1)
                started = time.perf_counter()
                assert other.ping() is True  # the loop is free
                assert time.perf_counter() - started < 0.5
                thread.join(5)
                assert 0.25 < outcome["timeout"] < 0.9
                assert service.metrics.counter("requests.inline") == 0
        finally:
            monkeypatch.undo()
            server.stop()

    def test_min_version_ahead_waits_on_a_worker_bounded_by_timeout(self):
        server = start_server(version_wait_ms=1500)
        service = server.service
        try:
            with ServiceClient(port=server.port, timeout=5.0) as client, ServiceClient(
                port=server.port, timeout=5.0
            ) as other:
                client.call("datalog", query=CONN_PROGRAM)
                ahead = service.store.version + 5
                outcome = {}

                def waiting_read():
                    started = time.perf_counter()
                    try:
                        client.call(
                            "datalog", query=CONN_PROGRAM, min_version=ahead, timeout=0.3
                        )
                    except QueryTimeout:
                        outcome["timeout"] = time.perf_counter() - started

                thread = threading.Thread(target=waiting_read)
                thread.start()
                time.sleep(0.1)
                assert other.call("datalog", query=CONN_PROGRAM)["cache"] == "hit"
                thread.join(5)
                assert 0.25 < outcome["timeout"] < 0.9
                assert service.metrics.counter("requests.inline") == 1
        finally:
            server.stop()

    def test_timeout_zero_answers_timeout_hit_or_not(self):
        server = start_server()
        try:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(QueryTimeout):
                    client.call("rpq", query=RPQ, timeout=0)  # miss
                assert client.call("rpq", query=RPQ)["cache"] == "hit"
                with pytest.raises(QueryTimeout):
                    client.call("rpq", query=RPQ, timeout=0)  # hit
                assert server.service.metrics.counter("errors.timeout") == 2
        finally:
            server.stop()

    def test_pipelined_hits_do_not_starve_other_connections(self):
        count = 2000
        server = start_server()
        service = server.service
        try:
            with ServiceClient(port=server.port, retries=0) as watcher:
                handle = watcher.subscribe("hops(X, Y) :- hop(X, Y).", target="datalog")
                request = {"op": "rpq", "query": "from", "source": 21}
                pipeline = Wire(server.port)
                assert pipeline.request(request)["cache"] == "miss"
                received = []

                def read_all():
                    for _ in range(count):
                        received.append(pipeline.line())

                reader = threading.Thread(target=read_all)
                reader.start()
                pipeline.sock.sendall(protocol.encode(request) * count)
                with ServiceClient(port=server.port) as other:
                    while not received:
                        time.sleep(0.0005)
                    assert other.ping() is True
                    answered_before_ping = len(received)
                    other.update(edges=[["p", "hop", "q"]])
                event = handle.next_event(timeout=5)
                answered_before_frame = len(received)
                reader.join(20)
                pipeline.close()
            assert event is not None and event["type"] == "delta"
            assert len(received) == count
            assert all(json.loads(line)["cache"] == "hit" for line in received)
            assert answered_before_ping < count // 2
            assert answered_before_frame < count
            assert service.metrics.counter("requests.inline") >= count
        finally:
            server.stop()


def test_concurrent_hits_misses_and_commits_count_every_request_once():
    """Hits on the loop, hand-offs and commits racing on shared caches and
    counters: every request is counted exactly once, wherever it ran."""
    queries = [
        ("datalog", {"query": CONN_PROGRAM}),
        ("rpq", {"query": RPQ, "source": "toronto"}),
        ("datalog", {"query": "hops(X, Y) :- hop(X, Y)."}),
    ]
    sent = {"query": 0, "update": 0, "ping": 0}
    lock = threading.Lock()
    errors = []
    server = start_server(workers=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def reader(seed):
        try:
            with ServiceClient(port=server.port) as client:
                for i in range(150):
                    if (i + seed) % 25 == 0:
                        client.ping()
                        kind = "ping"
                    else:
                        op, payload = queries[(i + seed) % len(queries)]
                        client.call(op, **payload)
                        kind = "query"
                    with lock:
                        sent[kind] += 1
        except Exception as exc:  # noqa: BLE001 — reported by the assertion
            errors.append(exc)

    def writer():
        try:
            with ServiceClient(port=server.port) as client:
                for i in range(30):
                    client.update(edges=[[f"n{i}", "hop", f"n{i + 1}"]])
                    with lock:
                        sent["update"] += 1
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = server.service.stats()
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    counters = stats["metrics"]["counters"]
    queried = sum(counters.get(f"requests.{op}", 0) for op in ("datalog", "rpq"))
    assert queried == sent["query"]
    assert counters["requests.update"] == sent["update"]
    assert counters["requests.ping"] == sent["ping"]
    assert 0 < counters["requests.inline"] <= sent["query"]
    results = stats["result_cache"]
    assert results["hits"] + results["misses"] == sent["query"]
    assert counters["result_cache.hits"] == results["hits"]
    assert counters["result_cache.misses"] == results["misses"]
    plans = stats["plan_cache"]
    assert plans["hits"] + plans["misses"] == sent["query"]
    assert stats["metrics"]["phases"]["cache_lookup"]["count"] == sent["query"]
    assert stats["metrics"]["in_flight"] == 0


# -------------------------------------------------------------- telemetry


def test_inline_share_in_stats_and_metrics():
    server = start_server()
    try:
        with ServiceClient(port=server.port) as client:
            client.datalog(CONN_PROGRAM)  # miss: on a worker
            client.datalog(CONN_PROGRAM)  # hit: inline
            client.datalog(CONN_PROGRAM)
            client.ping()  # other ops never inline
            stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters["requests.inline"] == 2
        assert counters["requests.datalog"] == 3
        # Only the worker runs observe queue_wait: the miss, the ping, and
        # the stats call itself is still running.
        assert stats["metrics"]["phases"]["queue_wait"]["count"] == 3
        text = server.service.prometheus_text()
        assert "repro_requests_inline_total 2" in text
        assert 'repro_requests_total{op="inline"}' not in text
    finally:
        server.stop()
