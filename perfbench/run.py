"""Run one benchmark workload against real server processes.

From the checkout root::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
measures the same loop twice, half the time each: first untraced, then with
the span recorder switched on in every server process; it reports the
per-layer metrics and the tracing overhead (traced minus untraced).

Every answer is checked.  The human-readable report goes to stdout, the full
record to ``.perfbench/results/``, and the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from common import ROOT, BenchError, import_repro, percentile, tail_percentile

#: Set-ups per run; ``setup_s`` is their median, the last one is measured.
SETUPS = 9

#: A measured window is cut into segments of about this many seconds;
#: ``server_cpu_ms_per_op`` (see ``measure``) and the ``*_ops_per_s``
#: figures are medians over the segments.
SEGMENT_S = 1.0

#: Seconds of load before the first measured window: the servers' CPU time
#: per request settles only after a few thousand requests.
WARMUP_S = 3.0

#: Per workload: the operations ``server_cpu_ms_per_op`` divides by and
#: whose p50 ``trace.overhead_ms`` compares (see README).
OP_KINDS = {
    "hot_read": ("read",),
    "commit_fanout": ("delivery",),
    "routed_mix": ("read", "commit"),
}

#: Metric -> span whose mean self time per call (ms, over the ``serve``
#: processes) it reports.
SPAN_TIMES = {
    "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode",
    "server.executor_wait_ms": "server.executor_wait",
    "server.execute_self_ms": "server.execute",
    "prepared.plan_ms": "prepared.plan",
    "prepared.evaluate_ms": "prepared.evaluate",
    "cache.lookup_ms": "cache.lookup",
    "cache.apply_commit_ms": "cache.apply_commit",
    "bridge.edb_build_ms": "bridge.edb_build",
    "columnar.encode_db_ms": "columnar.encode_db",
    "store.commit_ms": "store.commit",
    "store.graph_copy_ms": "store.graph_copy",
    "store.delta_ms": "store.delta",
    "persist.wal_append_ms": "persist.wal_append",
    "dred.maintain_ms": "dred.maintain",
    "subs.drain_ms": "subs.drain",
    "repl.tail_ms": "repl.tail",
    "repl.apply_ms": "repl.apply",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------- server stats

def _numbers(doc, prefix=""):
    """Flatten the numeric leaves of a stats document to dotted paths."""
    flat = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_numbers(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = value
    return flat


def snapshot(workload):
    """Counters of every server node (``stats``) and of the router
    (``cluster_stats``), keyed ``node/path``."""
    from repro.service.client import ServiceClient

    counters = {}
    for name, port in workload.stat_nodes().items():
        with ServiceClient(port=port, timeout=30.0) as client:
            for path, value in _numbers(client.stats()).items():
                counters[f"{name}/{path}"] = value
    router = workload.router_port()
    if router is not None:
        with ServiceClient(port=router, timeout=30.0) as client:
            doc = client.cluster_stats()["router"]["counters"]
        for path, value in _numbers(doc).items():
            counters[f"router/{path}"] = value
    counters["disk_bytes"] = workload.disk_bytes()
    counters["commits"] = workload.commits
    counters["reads"] = workload.reads
    return counters


def _delta(before, after, path):
    """Summed over nodes: after - before for every ``*/path`` counter."""
    total = 0
    for key, value in after.items():
        if key == path or key.endswith("/" + path):
            total += value - before.get(key, 0)
    return total


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def counter_metrics(before, after):
    """Per-layer counts and ratios from the public stats ops."""
    d = lambda path: _delta(before, after, path)  # noqa: E731
    commits = d("commits")
    appends = d("store.durability.wal.appends")
    return {
        "prepared.plan_hit_ratio": _ratio(d("plan_cache.hits"),
                                          d("plan_cache.hits") + d("plan_cache.misses")),
        "cache.hit_ratio": _ratio(d("result_cache.hits"),
                                  d("result_cache.hits") + d("result_cache.misses")),
        "cache.delta_reuse_ratio": _ratio(
            d("result_cache.delta_reuse_hits"),
            d("result_cache.delta_reuse_hits") + d("result_cache.invalidations")),
        "cache.evictions": float(d("result_cache.evictions")),
        "persist.fsyncs_per_commit": _ratio(d("store.durability.wal.fsyncs"), appends),
        "persist.wal_bytes_per_commit": _ratio(d("store.durability.wal.bytes"), appends),
        "persist.disk_bytes_per_commit": _ratio(d("disk_bytes"), commits),
        "subs.passes_per_commit": _ratio(d("subs.maintenance_passes"), commits),
        "subs.frames_per_commit": _ratio(d("subs.deltas_pushed"), commits),
        "subs.resyncs": float(d("subs.resyncs")),
        "repl.records_per_tail": _ratio(d("replication.records_shipped"),
                                        d("replication.tail_requests")),
        "repl.lag_versions": float(after.get("replica/replication.lag_versions", 0)),
        "router.stale_redirects": float(d("router/stale_redirects")),
    }


# ------------------------------------------------------------------ spans

def span_metrics(servers, reads, commits):
    """Mean self time per layer from the span files the servers wrote."""
    by_name = defaultdict(lambda: [0, 0.0, 0])  # calls, self seconds, bytes
    router = defaultdict(lambda: [0, 0.0])
    for name, path in servers:
        if not os.path.exists(path):
            raise BenchError(f"{name} wrote no span file")
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        covered = defaultdict(float)
        for _sid, parent, _n, start, end, _rid, _size in spans:
            if parent:
                covered[parent] += end - start
        for sid, _parent, span, start, end, _rid, size in spans:
            own = (end - start) - covered.get(sid, 0.0)
            if name == "router":
                router[span][0] += 1
                router[span][1] += own
                continue
            entry = by_name[span]
            entry[0] += 1
            entry[1] += own
            entry[2] += size or 0

    def mean_ms(entry):
        return entry[1] / entry[0] * 1000.0 if entry[0] else 0.0

    metrics = {metric: mean_ms(by_name[span]) for metric, span in SPAN_TIMES.items()}
    encode = by_name["protocol.encode"]
    metrics["protocol.encode_bytes"] = _ratio(encode[2], encode[0])
    metrics["prepared.evaluate_calls_per_read"] = _ratio(by_name["prepared.evaluate"][0], reads)
    metrics["bridge.edb_builds_per_commit"] = _ratio(by_name["bridge.edb_build"][0], commits)
    metrics["store.graph_copies_per_commit"] = _ratio(by_name["store.graph_copy"][0], commits)
    metrics["router.forward_ms"] = mean_ms(router["client.call"])
    metrics["router.route_self_ms"] = mean_ms(router["router.route"])
    return metrics


# --------------------------------------------------------------- the run

def summary(values):
    """p50, p99 and the highest percentile with ten samples beyond it."""
    tail = tail_percentile(len(values))
    return {"count": len(values), "p50": percentile(values, 50),
            "p99": percentile(values, 99), "tail_q": tail,
            "tail": percentile(values, tail)}


def latencies(logs, kinds):
    return [v for log in logs for k in kinds for v in log.latencies_ms.get(k, ())]


def ops_per_s(segments, kinds):
    """Completed operations per second of client busy time, summed over
    the closed-loop clients of a segment; the median over the segments."""
    return statistics.median(
        sum(len(latencies([log], kinds)) / log.busy_s for log in logs) for logs in segments)


def cpu_ticks():
    """(steal, busy) jiffies of all CPUs, from /proc/stat; busy is every
    state but idle and iowait, steal included."""
    with open("/proc/stat") as handle:
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(v) for v in handle.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before, after):
    """Share of the CPUs' busy time the hypervisor stole between two
    ``cpu_ticks()`` readings."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(workload, seconds, kinds, traced=False):
    """One measured window, in segments: client logs, counters around the
    window, server CPU time per operation of each segment and the share of
    busy CPU time the hypervisor stole meanwhile.  With *traced*, the
    servers record spans during the window only.

    A segment's server CPU time is taken net of that stolen share.  The
    guest charges time stolen while a server runs to the server: across
    runs at 0-30% steal, gross CPU time per operation rose about one for
    one with the share (README), while the net figure stays flat."""
    before = snapshot(workload)
    if traced:
        workload.cluster.set_tracing(True)
    window_ticks = cpu_ticks()
    count = max(1, round(seconds / SEGMENT_S))
    segments, cpu_ops, steals = [], [], []
    for _ in range(count):
        ticks = cpu_ticks()
        cpu_before = workload.cluster.cpu_seconds()
        logs = workload.measure(seconds / count)
        cpu = workload.cluster.cpu_seconds() - cpu_before
        cpu -= sum(log.check_server_cpu_s for log in logs)
        ops = len(latencies(logs, kinds))
        segments.append(logs)
        if ops:
            cpu_ops.append((cpu, ops))
            steals.append(steal_share(ticks, cpu_ticks()))
    steal = steal_share(window_ticks, cpu_ticks())
    if traced:
        workload.cluster.set_tracing(False)
    after = snapshot(workload)
    return {"segments": segments, "logs": [log for logs in segments for log in logs],
            "before": before, "after": after, "cpu_ops": cpu_ops, "steals": steals,
            "cpu_ms_per_op": [cpu * (1.0 - steal) * 1000.0 / ops
                              for (cpu, ops), steal in zip(cpu_ops, steals)],
            "steal": steal}


def run(args, workdir):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setups = []
        for rep in range(SETUPS):
            if rep:
                workload.close()
            rep_dir = os.path.join(workdir, f"setup{rep}")
            os.makedirs(rep_dir)
            started = time.perf_counter()
            workload.setup(rep_dir)
            setups.append(time.perf_counter() - started)
        workload.prepare()
        warmup = workload.measure(WARMUP_S)
        kinds = OP_KINDS[args.workload]
        untraced = None
        if args.trace:
            untraced = measure(workload, args.seconds / 2.0, kinds)
            window = measure(workload, args.seconds / 2.0, kinds, traced=True)
        else:
            window = measure(workload, args.seconds, kinds)
        window["rss_mb"] = workload.cluster.peak_rss_mb()
        window["warmup"] = warmup
        failures = workload.finish()
        servers = [(s.name, s.span_path) for s in workload.cluster.servers]
    finally:
        workload.close()
    if args.trace:
        # The span files are complete once the servers have exited.
        after, before = window["after"], window["before"]
        layers = span_metrics(servers, after["reads"] - before["reads"],
                              after["commits"] - before["commits"])
    else:
        layers = {}
    return report(args, workload, setups, window, untraced, layers, failures)


def report(args, workload, setups, window, untraced, layers, failures):
    logs = window["logs"]
    kinds = OP_KINDS[args.workload]
    values = latencies(logs, kinds)
    if not window["cpu_ms_per_op"]:
        raise BenchError(f"no successful operation; failures: {logs[0].failures}")
    # Warm-up answers are checked and counted too.
    checked = logs + window["warmup"] + (untraced["logs"] if untraced else [])
    attempted = sum(log.attempted for log in checked)
    failed = sum(log.failed for log in checked) + len(failures)
    end_to_end = {
        "server_cpu_ms_per_op": statistics.median(window["cpu_ms_per_op"]),
        "setup_s": statistics.median(setups),
        "server_rss_mb": window["rss_mb"],
    }
    per_layer = counter_metrics(window["before"], window["after"])
    outside = [v for log in (untraced or window)["logs"] for v in log.outside_ms]
    per_layer["server.outside_ms"] = statistics.median(outside) if outside else 0.0
    per_layer.update(layers)
    if untraced is not None:
        per_layer["trace.overhead_ms"] = (
            percentile(values, 50) - percentile(latencies(untraced["logs"], kinds), 50))

    # The human-readable report: every end-to-end figure that applies to
    # this workload, with its sample count.
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(),
           "python": platform.python_version(), "commit": git_commit()}
    lines = ["  ".join(f"{key} {value}" for key, value in env.items()),
             f"inputs {json.dumps(workload.sizes, sort_keys=True)}",
             f"cpu steal {window['steal']:.2%} of busy CPU time while measuring"]
    figures = {}
    for kind in ("read", "commit", "delivery"):
        kind_values = latencies(logs, (kind,))
        if not kind_values:
            continue
        s = summary(kind_values)
        figures.update({f"{kind}_p50_ms": s["p50"], f"{kind}_p99_ms": s["p99"],
                        f"{kind}_ops_per_s": ops_per_s(window["segments"], (kind,))})
        lines.append(f"{kind}_p50_ms {s['p50']:.4f}  {kind}_p99_ms {s['p99']:.4f}  "
                     f"p{s['tail_q']:g} {s['tail']:.4f} ms  (n={s['count']})  "
                     f"{kind}_ops_per_s {figures[f'{kind}_ops_per_s']:.2f}")
    if workload.data_dir:
        figures["disk_bytes_per_commit"] = per_layer["persist.disk_bytes_per_commit"]
        lines.append(f"disk_bytes_per_commit {figures['disk_bytes_per_commit']:.1f} "
                     f"(fsync={workload.sizes['fsync']})")
    figures["failed_op_ratio"] = failed / attempted
    lines.append(f"failed_op_ratio {figures['failed_op_ratio']:.6f}  "
                 f"(failed {failed} of {attempted})")
    for reason in ([r for log in checked for r in log.failures] + failures)[:10]:
        lines.append(f"  failure: {reason}")
    lines.append(f"setup_s each {', '.join(f'{s:.4f}' for s in setups)}")
    per_op = sorted(window["cpu_ms_per_op"])
    lines.append(f"server_cpu_ms_per_op (net of steal) over {len(per_op)} segments: "
                 f"min {per_op[0]:.4f}  median {statistics.median(per_op):.4f}  "
                 f"max {per_op[-1]:.4f}; steal per segment up to {max(window['steals']):.1%}")
    lines.append(f"answer checks took {sum(log.check_s for log in logs):.3f} s "
                 f"outside the measured time")
    if not args.trace:
        lines += [f"e2e   {name:32s} {value:14.6f}" for name, value in end_to_end.items()]
    lines += [f"layer {name:32s} {value:14.6f}" for name, value in sorted(per_layer.items())]
    print("\n".join(lines))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    measured = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics declared but not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    record = dict(
        env, inputs=workload.sizes, setups_s=setups, cpu_steal_share=window["steal"],
        server_cpu_s_ops_and_steal_per_segment=[
            (cpu, ops, steal) for (cpu, ops), steal in zip(window["cpu_ops"], window["steals"])],
        latency_samples={kind: len(latencies(logs, (kind,)))
                         for kind in ("read", "commit", "delivery")},
        end_to_end=end_to_end, figures=figures, per_layer=per_layer,
        failures=[r for log in checked for r in log.failures] + failures,
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def main(argv=None):
    args = parse_args(argv)
    try:
        import_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # The work directory (server logs, span files, data) is kept only when
    # the run fails or an answer is wrong.
    keep = True
    try:
        result, record = run(args, workdir)
        keep = not result["correct"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if keep:
            print(f"perfbench: work directory kept: {workdir}", file=sys.stderr)
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
