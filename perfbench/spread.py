#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and quartile spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds from BENCHMARK.json.  Use it to check
that a change to the benchmark keeps every end-to-end spread well
inside its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items()
                                              if k in bounds or args.trace)), flush=True)

    print("%-32s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-32s %14.6g %8.4f %8s" % (name, med, spread, "-" if bound is None else bound))


if __name__ == "__main__":
    main()
