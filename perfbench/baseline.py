"""Repeat benchmark runs over several seeds and summarize them.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --traced-runs 3 --out perfbench/baseline.json

For every workload it makes `--runs` untraced runs (seeds 1..runs) and
`--traced-runs` traced ones, each through `run.py` as its own process, and
reports per end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, as `statistics.quantiles(values, n=4)` gives them.
For the traced runs it reports the median of every per-layer time and
the problem-size counts.  A later change quotes its before/after numbers
from two such summaries made with the same settings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" env ", 1)[1])
    return env, json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=bench.WORKLOADS,
                        choices=bench.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {"run_seconds": args.seconds, "runs": args.runs,
               "traced_runs": args.traced_runs, "end_to_end": {},
               "fail_rate": {}, "per_layer": {}, "sizes": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            env, result = one_run(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        table = {name: summarize(v) for name, v in values.items()}
        summary["end_to_end"][workload] = table
        summary["fail_rate"][workload] = failed / attempted
        layers = {}
        for seed in seeds[:args.traced_runs]:
            env, result = one_run(workload, seed, args.seconds, 1)
            for name, metric in result["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        times = {name: statistics.median(v) for name, v in layers.items()
                 if name not in bench.tracer.COUNTERS}
        traced_wall = sum(v for name, v in times.items()
                          if name.endswith(".self_s"))
        summary["per_layer"][workload] = {
            name: {"median": value,
                   "share": value / traced_wall if name.endswith(".self_s")
                   else None}
            for name, value in times.items()}
        summary["sizes"][workload] = {
            name: layers[name][-1] for name in bench.tracer.COUNTERS
            if name in layers}
        summary["env"] = env
        for name, row in table.items():
            print(f"{workload:9s} {name:12s} median {row['median']:.4g}"
                  f"  spread {row['spread']:.4f}", flush=True)
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
