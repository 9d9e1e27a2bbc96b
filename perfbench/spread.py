#!/usr/bin/env python3
"""Runs the benchmark several times with distinct seeds and reports, for
every metric, the median, the quartiles and the interquartile range as a
share of the median -- the spread a bound in BENCHMARK.json must cover.

    python3 perfbench/spread.py --workload large --runs 10 --first-seed 100
    python3 perfbench/spread.py --workload small --runs 10 --first-seed 200 \
        --compare perfbench-out/spread-small-100.json

Run it from the repository root. Each run is the command BENCHMARK.json
names; the raw results go to perfbench-out/spread-<workload>-<first seed>.json.
With --compare, each median is also compared with the medians of an earlier
set, as a share of the earlier one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    lines = out.stdout.strip().splitlines()
    host = json.loads(next((l[5:] for l in lines if l.startswith("host ")), "{}"))
    steal = next((l.split()[1] for l in lines if l.startswith("host_steal_pct ")), None)
    host["steal_pct"] = float(steal) if steal is not None else None
    return host, json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--compare", help="an earlier spread-*.json of the same workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        host, result = run_once(bench, args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "host": host, "result": result})
        print(f"run {k + 1}/{args.runs} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"steal={host['steal_pct']}%", file=sys.stderr)

    os.makedirs("perfbench-out", exist_ok=True)
    path = f"perfbench-out/spread-{args.workload}-{args.first_seed}.json"
    with open(path, "w") as f:
        json.dump(runs, f, indent=1)

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)
        names = old[0]["result"]["metrics"].keys()
        earlier = {n: statistics.median(r["result"]["metrics"][n]["value"] for r in old)
                   for n in names}

    host = runs[0]["host"]
    print(f"host: nproc={host.get('nproc')} cpu={host.get('cpu')!r} "
          f"rustc={host.get('rustc')!r} commit={host.get('commit')} "
          f"source={host.get('source_digest')}")
    ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
    print(f"{args.workload}: {len(runs)} runs, all correct: {ok}")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'bound':>6} {'vs-old':>7}")
    names = runs[0]["result"]["metrics"].keys()
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = summarize(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = " WIDE"
        vs = ""
        if name in earlier and earlier[name]:
            vs = f"{med / earlier[name] - 1:+.3f}"
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6} {vs:>7}{flag}")
    print(f"raw results: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
