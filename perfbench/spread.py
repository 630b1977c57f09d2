#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median, next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--one-seed] [workload ...]

Each run takes the next seed from --first-seed on; with --one-seed every
run takes --first-seed, which leaves only the host's own noise. Run from
the repository root. Every run's host fingerprint is read from
its results file; the script refuses to pool runs from different hosts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--one-seed", action="store_true")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        hosts = set()
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.one_seed else i)
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.load(open(os.path.join("perfbench", "out", f"{w}-seed{seed}-trace0.json")))
            fp = record["fingerprint"]
            hosts.add((fp["cpu"], fp["nproc"], fp["rustc"]))
        if len(hosts) != 1:
            sys.exit(f"{w}: runs came from different hosts {hosts}; not comparable")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{w:8} {name:12} median {med:14.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  ({spread / bounds[name]:.2f} of bound)")
    print(f"worst spread / bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
