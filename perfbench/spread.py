#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload and
prints, per metric, the median of the runs and the distance between the
first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py --workloads serve_mvm,solve_mix --seeds 1-10

Run from the repository root after one build (the first run builds).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    worst = {}
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        print(f"\n{w}: {'metric':<34} {'median':>14} {'iqr/med':>9} {'bound':>7}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
            print(f"{w}: {name:<34} {med:>14.6g} {spread:>9.4f} {bound if bound is not None else '-':>7}{flag}")
            worst[(w, name)] = (med, spread)
        print(flush=True)
    json.dump({f"{w}/{n}": v for (w, n), v in worst.items()}, sys.stderr)
    print(file=sys.stderr)


if __name__ == "__main__":
    main()
