#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark.

    python3 incabench/spread.py --workloads paper,torture --runs 10
    python3 incabench/spread.py --runs 10 --compare .incabench/spread.json

Runs each workload --runs times, each with another --seed, through the
command in BENCHMARK.json, from the project root.  For every end-to-end
metric it prints the median and the distance between the first and the
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound.  It fails when a spread exceeds
its bound, when a run is incorrect, or when the deterministic counters
differ between runs.  With --compare it also fails when a median is
worse than the earlier set's by more than the bound.  Run i has seed i;
the raw values are written to .incabench/spread.json, after the file
--compare names has been read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    counters = next((l[len("counters "):] for l in lines if l.startswith("counters ")), "{}")
    return json.loads(lines[-1]), json.loads(counters)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--compare", help="the spread.json of an earlier set, to compare medians with")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = json.load(open(args.compare)) if args.compare else {}

    ok = True
    raw = {}
    for w in names:
        results = [run(bench["command"], w, seed, seconds) for seed in range(1, args.runs + 1)]
        raw[w] = {m: [r["metrics"][m]["value"] for r, _ in results] for m in bounds}
        if not all(r["correct"] for r, _ in results):
            print(f"{w}: an incorrect run"); ok = False
        if any(c != results[0][1] for _, c in results):
            print(f"{w}: deterministic counters differ between runs"); ok = False
        for m, bound in bounds.items():
            vals = raw[w][m]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag = "  SPREAD OVER BOUND"; ok = False
            elif spread > bound / 3:
                flag = "  spread over bound/3"
            if w in earlier:
                before = statistics.median(earlier[w][m])
                if (med - before) / before > bound:
                    flag += f"  WORSE THAN {before:.6g}"; ok = False
            print(f"{w:9s} {m:12s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:5.0%}{flag}")
        print(f"{w:9s} counters {json.dumps(results[0][1])}")
        sys.stdout.flush()

    os.makedirs(".incabench", exist_ok=True)
    path = ".incabench/spread.json"
    json.dump(raw, open(path, "w"), indent=1)
    print(f"raw values in {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
