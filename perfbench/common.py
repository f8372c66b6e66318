"""Shared helpers: paths, errors, percentiles and the latency log."""

from __future__ import annotations

import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class BenchError(Exception):
    """The benchmark could not set up or drive the program."""


def import_repro():
    """Make the checkout's ``src`` importable (the load generator uses the
    public ``ServiceClient`` and, for expected answers, the engine)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no repro package under {src}; run from a checkout root")
    if src not in sys.path:
        sys.path.insert(0, src)


def percentile(values, q):
    """Nearest-rank percentile of *values* (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count):
    """The highest of p99.9/p99/p95/p90/p50 with at least ten samples
    beyond it, for a sample of *count* values."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count - math.ceil(q / 100.0 * count) >= 10:
            return q
    return 50.0


class OpLog:
    """Latencies and outcome counts of one client loop.

    ``busy_s`` is the loop's wall time minus the time spent checking
    answers, so throughput excludes the checks; ``check_server_cpu_s`` is
    the server CPU time the checks' own requests used.
    """

    def __init__(self):
        self.latencies_ms = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.check_s = 0.0
        self.check_server_cpu_s = 0.0
        self.started = time.perf_counter()
        self.stopped = None
        self.outside_ms = []

    def record(self, kind, started, ended):
        self.latencies_ms.setdefault(kind, []).append((ended - started) * 1000.0)

    def fail(self, reason):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def stop(self):
        self.stopped = time.perf_counter()

    @property
    def busy_s(self):
        return (self.stopped or time.perf_counter()) - self.started - self.check_s
