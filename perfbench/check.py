"""Self-check: is the benchmark steady enough for its own bounds?

From the checkout root::

    python3 perfbench/check.py                       # 10 seeds x every workload
    python3 perfbench/check.py --workload commit_fanout --seeds 5 --first-seed 100

Runs ``perfbench/run.py`` once per seed (one at a time), then prints, per
workload and end-to-end metric, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  The check fails when a spread is over the metric's
``bound`` in ``BENCHMARK.json``; a spread over a third of the bound is
flagged ``WIDE``, as a sign the metric is not yet steady.
Use a ``--first-seed`` not used while tuning to confirm stability on
held-out seeds.  With ``--against FILE`` the medians are compared with an
earlier ``--save`` of this script: no median may be worse by more than its
bound.  Exits 1 when a check fails or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import ROOT


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}): {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the per-metric medians to this JSON file")
    parser.add_argument("--against", help="compare medians with an earlier --save")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    earlier = {}
    if args.against:
        with open(args.against) as handle:
            earlier = json.load(handle)
    medians = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT ({result['failed']} failed)")
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        for m in metrics:
            name, bound = m["name"], m["bound"]
            series = values[name]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            verdict = "ok"
            if spread > bound:
                verdict = "FAIL (over bound)"
                ok = False
            elif spread > bound / 3:
                verdict = "WIDE (over bound/3)"
            line = (f"{workload:14s} {name:14s} median {median:12.4f} {m['unit']:5s} "
                    f"spread {spread:6.3f} bound {bound:5.3f}  {verdict}")
            previous = earlier.get(workload, {}).get(name)
            if previous is not None:
                worse = (median - previous) / previous
                if m["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier {worse:+.3f}"
                if worse > bound:
                    line += " WORSE"
                    ok = False
            print(line, flush=True)
            medians.setdefault(workload, {})[name] = median
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(medians, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
