"""The three benchmark workloads.

Each workload makes its inputs from the seed, starts its servers, drives
them in a closed loop through the public ``ServiceClient`` and checks every
answer off the timed path.  See ``perfbench/README.md`` for why each one
exists and which layers it exercises.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

from cluster import Cluster, dir_bytes
from common import BenchError, OpLog

FSYNC_POLICY = "interval"

#: The abl7 query: flight legs between cities and their closure.
FLIGHTS_QUERY = """
define (C1) -[reach]-> (C2) {
    (C1) <-[from]- (F); (F) -[to]-> (C2);
}
define (C1) -[connected]-> (C2) {
    (C1) -[reach+]-> (C2);
}
"""

#: Time-feasible connections (Figure 4) ending in a capital city.
FLIGHTS_PROGRAM = """
feasible(F1, F2) :- to(F1, C), from(F2, C), arrival(F1, A), departure(F2, D), A < D.
trip(F1, F2) :- feasible(F1, F2).
trip(F1, F3) :- trip(F1, F2), feasible(F2, F3).
capitaltrip(F1, C) :- trip(F1, F2), to(F2, C), capital(C).
"""

#: From any node: optionally the flights departing at it (a time node),
#: optionally a flight's destination, then any number of further legs.
ROUTED_RPQ = "(-departure)? . to? . (-from . to)*"

REACH_QUERY = "define (X) -[reach]-> (Y) { (X) -[link+]-> (Y); }"
HOP2_QUERY = "define (X) -[hop2]-> (Y) { (X) -[link]-> (Z); (Z) -[link]-> (Y); }"

FIRST_FLIGHT = 10_000  # flight ids stay clear of the minute values used as times


def _fact(predicate, *args):
    return f"{predicate}({', '.join(str(a) for a in args)})."


def _flights(rng, n_cities, n_flights):
    """``{flight: (origin, destination, departure, arrival)}`` and capitals."""
    cities = [f"city{i}" for i in range(n_cities)]
    flights = {}
    for flight in range(FIRST_FLIGHT, FIRST_FLIGHT + n_flights):
        flights[flight] = _leg(rng, cities)
    capitals = [city for city in cities if rng.random() < 0.25]
    return cities, flights, capitals


def _leg(rng, cities):
    origin, destination = rng.sample(cities, 2)
    departure = rng.randrange(5 * 60, 22 * 60)
    return origin, destination, departure, departure + rng.randrange(30, 240)


def _flight_edges(flight, leg):
    origin, destination, departure, arrival = leg
    return [
        [flight, "from", origin],
        [flight, "to", destination],
        [flight, "departure", departure],
        [flight, "arrival", arrival],
    ]


def _write_flights(path, flights, capitals):
    with open(path, "w") as handle:
        for flight, (origin, destination, departure, arrival) in flights.items():
            handle.write(_fact("from", flight, origin) + "\n")
            handle.write(_fact("to", flight, destination) + "\n")
            handle.write(_fact("departure", flight, departure) + "\n")
            handle.write(_fact("arrival", flight, arrival) + "\n")
        for city in capitals:
            handle.write(_fact("capital", city) + "\n")


def _rows(relation):
    return {tuple(row) for row in relation}


class Workload:
    """Common shape: inputs from the seed at construction, then setup
    (repeatable, with ``close`` between), prepare, measure (repeatable) and
    finish."""

    name = ""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.cluster = None
        self.data_dir = None
        self.commits = 0
        self.reads = 0
        self.connections = []
        #: Wrong answers seen outside the measured windows (set-up, warm-up).
        self.problems = []

    def connect(self, port):
        """A client connection, closed with the workload's servers."""
        from repro.service.client import ServiceClient

        client = ServiceClient(port=port, timeout=60.0)
        self.connections.append(client)
        return client

    def stat_nodes(self):
        """Port of every ``serve`` process, by name (for ``stats``)."""
        return {server.name: server.port for server in self.cluster.servers
                if server.name != "router"}

    def router_port(self):
        for server in self.cluster.servers:
            if server.name == "router":
                return server.port
        return None

    def disk_bytes(self):
        return dir_bytes(self.data_dir) if self.data_dir else 0

    def finish(self):
        """Final checks after the last measured window; returns every
        problem found outside the measured windows."""
        return self.problems

    def close(self):
        while self.connections:
            self.connections.pop().close()
        if self.cluster is not None:
            self.cluster.stop()


class HotRead(Workload):
    """Two connections cycling over four fixed queries on a static store."""

    name = "hot_read"
    CONNECTIONS = 2
    N_CITIES = 20
    N_FLIGHTS = 150
    #: A seed draws stores until the four answers encode to this many JSON
    #: bytes, give or take ANSWER_TOLERANCE: encoding the cached answers is
    #: most of a hit's cost, so every seed then costs the server the same.
    #: Left free, the Datalog answer alone ranges over 1.5-7 KB by seed.
    ANSWER_BYTES = 15_000
    ANSWER_TOLERANCE = 0.01
    MAX_DRAWS = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.facts = os.path.join(workdir, "flights.dl")
        for draw in range(1, self.MAX_DRAWS + 1):
            cities, flights, capitals = _flights(self.rng, self.N_CITIES, self.N_FLIGHTS)
            _write_flights(self.facts, flights, capitals)
            source = self.rng.choice(cities)
            self.requests = [
                ("graphlog", {"query": FLIGHTS_QUERY}),
                ("graphlog", {"query": FLIGHTS_QUERY, "predicate": "reach"}),
                ("datalog", {"query": FLIGHTS_PROGRAM, "predicate": "capitaltrip"}),
                ("rpq", {"query": "(-from . to)+", "source": source}),
            ]
            self.expected = self._expected_answers()
            answer_bytes = sum(len(json.dumps(answer)) for answer in self.expected)
            if abs(answer_bytes - self.ANSWER_BYTES) <= self.ANSWER_TOLERANCE * self.ANSWER_BYTES:
                break
        else:
            raise BenchError(f"no store of ~{self.ANSWER_BYTES} answer bytes "
                             f"in {self.MAX_DRAWS} draws")
        self.clients = []
        self.sizes = {"cities": self.N_CITIES, "flights": self.N_FLIGHTS,
                      "queries": len(self.requests), "rpq_source": source,
                      "answer_bytes": answer_bytes, "draws": draw}

    def _expected_answers(self):
        """Every answer, computed in this process before any server runs."""
        from repro.ham.store import HAMStore
        from repro.io import load_database
        from repro.service.server import QueryService, ServiceConfig

        store = HAMStore()
        store.load_database(load_database(self.facts))
        service = QueryService(store=store, config=ServiceConfig())
        try:
            answers = []
            for op, payload in self.requests:
                result = service.execute(dict(payload, op=op))["result"]
                answers.append(json.loads(json.dumps(result)))
            return answers
        finally:
            service.close()

    def setup(self, workdir):
        self.cluster = Cluster(workdir)
        server = self.cluster.start("server", "serve", "--port", "0", "--data", self.facts)
        self.clients = [self.connect(server.port) for _ in range(self.CONNECTIONS)]
        op, payload = self.requests[0]
        if self.clients[0].call(op, **payload)["result"] != self.expected[0]:
            self.problems.append("first answer differs from the in-process one")

    def prepare(self):
        # Warm the plan and result caches on every query.
        for client in self.clients:
            for op, payload in self.requests:
                client.call(op, **payload)

    def measure(self, seconds):
        logs = [OpLog() for _ in self.clients]
        worker = threading.Thread(target=self._loop, args=(1, seconds, logs[1]))
        worker.start()
        try:
            self._loop(0, seconds, logs[0])
        finally:
            worker.join()
        self.reads += sum(log.attempted for log in logs)
        return logs

    def _loop(self, index, seconds, log):
        from repro.errors import ServiceError

        client = self.clients[index]
        requests = self.requests
        expected = self.expected
        clock = time.perf_counter
        i = index
        while log.busy_s < seconds:
            slot = i % len(requests)
            i += 1
            op, payload = requests[slot]
            log.attempted += 1
            started = clock()
            try:
                response = client.call(op, **payload)
            except ServiceError as exc:
                log.fail(f"{op}: {exc}")
                if client.poisoned:
                    client = self.clients[index] = self.connect(client.port)
                continue
            done = clock()
            rtt = done - started
            log.record("read", started, done)
            log.outside_ms.append(rtt * 1000.0 - response["elapsed_ms"])
            if response["result"] != expected[slot]:
                log.fail(f"{op}: answer differs from the in-process one")
            log.check_s += clock() - done
        log.stop()

class CommitFanout(Workload):
    """One writer toggling the end of a link chain, one connection holding
    live subscriptions that must all see every commit."""

    name = "commit_fanout"
    N_NODES = 1000
    N_EDGES = 3000
    CHAIN = 200
    REACH_SUBSCRIBERS = 4
    CHECK_EVERY = 50

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.facts = os.path.join(workdir, "graph.dl")
        with open(self.facts, "w") as handle:
            for _ in range(self.N_EDGES):
                a, b = self.rng.sample(range(self.N_NODES), 2)
                handle.write(_fact("cites", f"p{a}", f"p{b}") + "\n")
            for i in range(self.CHAIN):
                handle.write(_fact("link", f"n{i}", f"n{i + 1}") + "\n")
        self.tail_edge = [f"n{self.CHAIN}", "link", f"n{self.CHAIN + 1}"]
        chain = [f"n{i}" for i in range(self.CHAIN + 2)]
        # The two states the answers alternate between: without / with the
        # toggled tail edge.
        self.oracle = {}
        for present in (False, True):
            last = self.CHAIN + 1 if present else self.CHAIN
            self.oracle[present] = {
                "reach": {(chain[i], chain[j]) for i in range(last + 1)
                          for j in range(i + 1, last + 1)},
                "hop2": {(chain[i], chain[i + 2]) for i in range(last - 1)},
            }
        self.present = False
        self.version = None
        self.handles = []
        self.cond = threading.Condition()
        self.arrivals = {}
        self.latest = {}
        self.stream_failures = []
        self.reported = 0
        self.stop_pump = threading.Event()
        self.pump = None
        self.sizes = {"nodes": self.N_NODES + self.CHAIN + 1,
                      "edges": self.N_EDGES + self.CHAIN,
                      "chain": self.CHAIN,
                      "subscriptions": self.REACH_SUBSCRIBERS + 1,
                      "fsync": FSYNC_POLICY}

    def setup(self, workdir):
        self.cluster = Cluster(workdir)
        self.data_dir = os.path.join(workdir, "primary-data")
        server = self.cluster.start(
            "primary", "serve", "--port", "0", "--data-dir", self.data_dir,
            "--fsync", FSYNC_POLICY, "--data", self.facts,
        )
        self.writer = self.connect(server.port)
        response = self.writer.call("graphlog", query=REACH_QUERY)
        self.version = response["version"]
        if _rows(response["result"]["relations"]["reach"]) != self.oracle[False]["reach"]:
            self.problems.append("preloaded reach answer is wrong")

    def prepare(self):
        self.reader = self.connect(self.writer.port)
        queries = [REACH_QUERY] * self.REACH_SUBSCRIBERS + [HOP2_QUERY]
        for index, query in enumerate(queries):
            handle = self.reader.subscribe(query, on_event=self._on_event(index))
            self.handles.append(handle)
            self.latest[index] = handle.version
        self.problems += self._fold_check()
        self.pump = threading.Thread(target=self._pump)
        self.pump.start()
        warm = OpLog()
        for _ in range(10):
            self._commit(warm)
        self.problems += warm.failures

    def _on_event(self, index):
        def on_event(event):
            now = time.perf_counter()
            with self.cond:
                if event["type"] != "delta":
                    self.stream_failures.append(f"subscription {index}: {event}")
                elif event["version"] != self.latest[index] + 1:
                    self.stream_failures.append(
                        f"subscription {index}: version {event['version']} after "
                        f"{self.latest[index]}")
                self.latest[index] = event.get("version", self.latest[index])
                self.arrivals[index] = now
                self.cond.notify_all()

        return on_event

    def _pump(self):
        from repro.errors import ServiceError

        handle = self.handles[0]
        while not self.stop_pump.is_set():
            try:
                event = handle.next_event(timeout=0.05)
            except ServiceError as exc:
                with self.cond:
                    self.stream_failures.append(f"subscriber connection: {exc}")
                    self.cond.notify_all()
                return
            if event is not None and event.get("type") == "closed":
                return

    def _commit(self, log):
        """One update; waits for its ack and every subscription's frame."""
        from repro.errors import ServiceError

        log.attempted += 1
        change = {"remove_edges" if self.present else "edges": [self.tail_edge]}
        started = time.perf_counter()
        try:
            response = self.writer.call("update", **change)
        except ServiceError as exc:
            log.fail(f"update: {exc}")
            return False
        acked = time.perf_counter()
        version = response["version"]
        log.outside_ms.append((acked - started) * 1000.0 - response["elapsed_ms"])
        with self.cond:
            delivered = self.cond.wait_for(
                lambda: all(v >= version for v in self.latest.values())
                or len(self.stream_failures) > self.reported,
                timeout=30.0,
            )
            last = max(self.arrivals.values())
        self.present = not self.present
        self.version = version
        self.commits += 1
        problems = self._stream_problems()
        if not delivered or problems:
            log.fail(f"version {version}: frames missing or wrong: {problems}")
            return False
        log.record("commit", started, acked)
        log.record("delivery", started, last)
        return True

    def _stream_problems(self):
        """Stream failures seen since the last call."""
        with self.cond:
            problems = self.stream_failures[self.reported:]
            self.reported = len(self.stream_failures)
        return problems

    def _fold_check(self):
        """Problems found comparing every subscription's folded rows with a
        fresh query and with the oracle at the current version."""
        expected = self.oracle[self.present]
        problems = []
        for query, predicate in ((REACH_QUERY, "reach"), (HOP2_QUERY, "hop2")):
            response = self.writer.call("graphlog", query=query)
            fresh = _rows(response["result"]["relations"][predicate])
            if response["version"] != self.version or fresh != expected[predicate]:
                problems.append(f"fresh {predicate} query is wrong at {self.version}")
        for index, handle in enumerate(self.handles):
            predicate = "hop2" if index == self.REACH_SUBSCRIBERS else "reach"
            if handle.version != self.version or handle.result(predicate) != expected[predicate]:
                problems.append(f"subscription {index} diverged at {self.version}")
        return problems

    def measure(self, seconds):
        log = OpLog()
        while log.busy_s < seconds:
            if not self._commit(log):
                break
            if self.commits % self.CHECK_EVERY == 0:
                # The check's fresh queries are server work too; keep their
                # CPU out of the per-commit cost.
                checked = time.perf_counter()
                cpu = self.cluster.cpu_seconds()
                problems = self._fold_check()
                if problems:
                    log.fail("; ".join(problems))
                log.check_server_cpu_s += self.cluster.cpu_seconds() - cpu
                log.check_s += time.perf_counter() - checked
        log.stop()
        return [log]

    def finish(self):
        problems = self.problems + self._fold_check() + self._stream_problems()
        self.stop_pump.set()
        self.pump.join()
        return problems


class RoutedMix(Workload):
    """Primary, replica and router; one routed connection sending ~90%
    reads and ~10% writes."""

    name = "routed_mix"
    N_CITIES = 40
    N_FLIGHTS = 600
    #: The op mix, shuffled by the seed block by block: 10% writes, 15%
    #: reach, 15% connected and 60% RPQ reads in every 20 requests, so
    #: runs differ in order, never in how many costly ops they hold.
    BLOCK = ("write",) * 2 + ("reach",) * 3 + ("connected",) * 3 + ("rpq",) * 12
    WRITE_SHARE = BLOCK.count("write") / len(BLOCK)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cities, flights, capitals = _flights(self.rng, self.N_CITIES, self.N_FLIGHTS)
        self.facts = os.path.join(workdir, "flights.dl")
        _write_flights(self.facts, flights, capitals)
        self.flights = dict(flights)
        times = {t for leg in flights.values() for t in leg[2:]}
        self.sources = sorted(flights) + sorted(times) + self.cities
        self.inserted = []
        self.next_flight = FIRST_FLIGHT + self.N_FLIGHTS
        self.version = None
        self._oracle_version = None
        self._block = []
        self.sizes = {"cities": self.N_CITIES, "flights": self.N_FLIGHTS,
                      "rpq_sources": len(self.sources), "write_share": self.WRITE_SHARE,
                      "fsync": FSYNC_POLICY}

    def setup(self, workdir):
        self.cluster = Cluster(workdir)
        self.data_dir = os.path.join(workdir, "primary-data")
        primary = self.cluster.start(
            "primary", "serve", "--port", "0", "--data-dir", self.data_dir,
            "--fsync", FSYNC_POLICY, "--data", self.facts,
        )
        replica = self.cluster.start(
            "replica", "serve", "--port", "0", "--replica-of", primary.address,
        )
        router = self.cluster.start(
            "router", "route", "--port", "0", "--primary", primary.address,
            "--replica", replica.address,
        )
        self.client = self.connect(router.port)
        # The preload is commit 1; asking for it waits out replica bootstrap.
        response = self.client.call(
            "graphlog", query=FLIGHTS_QUERY, predicate="connected", min_version=1)
        self.version = response["version"]
        problem = self._check_read("connected", None, response)
        if problem:
            self.problems.append(f"first answer: {problem}")

    def prepare(self):
        warm = OpLog()
        for _ in range(50):
            self._op(warm)
        self.problems += warm.failures

    # ------------------------------------------------------------ the oracle

    def _refresh_oracle(self):
        """Rebuild the reach sets for the current flights, once per version."""
        if self._oracle_version != self.version:
            legs = {}
            departing = {}
            for flight, (origin, destination, departure, _arrival) in self.flights.items():
                legs.setdefault(origin, set()).add(destination)
                departing.setdefault(departure, []).append(flight)
            closure = {}
            for city in self.cities:
                seen = set()
                frontier = list(legs.get(city, ()))
                while frontier:
                    node = frontier.pop()
                    if node not in seen:
                        seen.add(node)
                        frontier.extend(legs.get(node, ()))
                closure[city] = seen
            self._reach = {(o, d) for o, ds in legs.items() for d in ds}
            self._connected = {(o, d) for o, ds in closure.items() for d in ds}
            self._closure = closure
            self._departing = departing
            self._oracle_version = self.version

    def _rpq_answer(self, source):
        start = {source}
        start.update(self._departing.get(source, ()))
        for node in list(start):
            leg = self.flights.get(node)
            if leg is not None:
                start.add(leg[1])
        answer = set(start)
        for node in start:
            answer.update(self._closure.get(node, ()))
        return {(node,) for node in answer}

    def _check_read(self, kind, source, response):
        """None when the routed read matches the oracle, else the reason."""
        if response["version"] != self.version:
            return f"{kind}: version {response['version']}, expected {self.version}"
        relations = response["result"]["relations"]
        self._refresh_oracle()
        if kind == "rpq":
            if _rows(relations["answers"]) != self._rpq_answer(source):
                return f"rpq from {source!r}: wrong answer at version {self.version}"
            return None
        expected = self._reach if kind == "reach" else self._connected
        if _rows(relations[kind]) != expected:
            return f"{kind}: wrong answer at version {self.version}"
        return None

    # ---------------------------------------------------------- the loop

    def _next_request(self):
        if not self._block:
            self._block = list(self.BLOCK)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "write":
            # Inserts and deletes alternate: each delete removes the leg
            # the previous write inserted.
            if self.inserted:
                flight = self.inserted[0]
                leg = self.flights[flight]
                return "delete", None, {"remove_edges": _flight_edges(flight, leg),
                                        "remove_nodes": [flight]}, (flight, leg)
            flight = self.next_flight
            self.next_flight += 1
            leg = _leg(self.rng, self.cities)
            return "insert", None, {"edges": _flight_edges(flight, leg)}, (flight, leg)
        if kind != "rpq":
            return kind, None, {"query": FLIGHTS_QUERY, "predicate": kind}, None
        source = self.rng.choice(self.sources)
        return "rpq", source, {"query": ROUTED_RPQ, "source": source}, None

    def _op(self, log):
        from repro.errors import ServiceError

        kind, source, payload, write = self._next_request()
        op = "update" if write is not None else ("rpq" if kind == "rpq" else "graphlog")
        log.attempted += 1
        started = time.perf_counter()
        try:
            response = self.client.call(op, **payload)
        except ServiceError as exc:
            log.fail(f"{kind}: {exc}")
            if self.client.poisoned:
                self.client = self.connect(self.client.port)
            return
        done = time.perf_counter()
        rtt = done - started
        log.outside_ms.append(rtt * 1000.0 - response["elapsed_ms"])
        if write is not None:
            log.record("commit", started, done)
            flight, leg = write
            if kind == "insert":
                self.flights[flight] = leg
                self.inserted.append(flight)
            else:
                del self.flights[flight]
                self.inserted.remove(flight)
            self.commits += 1
            if response["version"] != self.version + 1:
                log.fail(f"{kind}: acknowledged version {response['version']} "
                         f"after {self.version}")
            self.version = response["version"]
        else:
            log.record("read", started, done)
            self.reads += 1
            reason = self._check_read(kind, source, response)
            if reason:
                log.fail(reason)
        log.check_s += time.perf_counter() - done

    def measure(self, seconds):
        log = OpLog()
        while log.busy_s < seconds:
            self._op(log)
        log.stop()
        return [log]


WORKLOADS = {cls.name: cls for cls in (HotRead, CommitFanout, RoutedMix)}
