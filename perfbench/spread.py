#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and its spread: the distance between the first and third
quartiles as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py [--seeds 1,2,3,4,5,6,7,8,9,10]

Run it from the repository root. It runs the command of BENCHMARK.json on
every workload for `run_seconds`, and appends every run's last output line
to perfbench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log = open(os.path.join("perfbench", "out", "spread.jsonl"), "a")
    worst = 0.0
    for w in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in seeds:
            run = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(run, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                sys.exit(1)
            res = json.loads(last)
            log.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            log.flush()
            if not res["correct"]:
                print(f"{w} seed {seed}: incorrect output")
                sys.exit(1)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"\n{w} ({len(seeds)} seeds)")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:24s} median {med:14.6g} {m['unit']:8s} "
                  f"spread {spread:8.4f} bound {m['bound']}{flag}")
    print(f"\nworst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
