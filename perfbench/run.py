"""helmholtz-lab benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_1d --seed 1 --seconds 25 --trace 0

The run starts fresh worker processes (`worker.py`) with OpenBLAS, OpenMP,
MKL and the CLI's worker pool pinned to one thread and `src` on the path.
Several of them only import the package and build the configs, to time
set-up; one of them then repeats passes over the workload's sweeps for
`--seconds` and checks every CSV row (see `checks.py`).

With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced pass (see `tracer.py`).  Readable lines
come first; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  Exit code 0 on a
completed run (also when rows failed), non-zero when the run could not be
made, in which case no result is printed.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import checks
import probe
import tracer
import worker

WORKLOADS = tuple(worker.WORKLOADS)
SETUP_SAMPLES = 8
# A run must end within 180 s; a worker still running after this is killed.
RUN_TIMEOUT_S = 160.0
OUT_ROOT = ".perfbench_out"


class RunError(Exception):
    """The benchmark could not make the run."""


def _worker_env():
    env = dict(os.environ)
    env.update(worker.PINNED_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _start(workload, seed, out_dir, extra, deadline):
    """Start a worker; returns (process, (raw, scaled) set-up time).

    The raw set-up time is the wall time until the worker reported ready,
    less the time its speed probe took; the scaled one is that time at the
    probe's reference speed (see probe.py).
    """
    os.makedirs(out_dir)
    cmd = [sys.executable, worker.__file__,
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE, text=True,
                            env=_worker_env())
    readable, _, _ = select.select([proc.stdout], [], [],
                                   max(deadline - started, 0.0))
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - started
    fields = line.split()
    if len(fields) != 3 or fields[0] != "ready":
        proc.kill()
        _finish(proc, deadline)
        raise RunError(f"worker did not get ready (exit {proc.returncode})")
    raw = setup - float(fields[1])
    return proc, (raw, raw * probe.REFERENCE_S / float(fields[2]))


def _finish(proc, deadline):
    """Wait for a worker and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out")
    return out


def run_workload(workload, seed, seconds, trace):
    """Make one run; returns (set-up samples, worker result).

    Each set-up sample is a (raw, scaled) pair, as `_start` returns it.
    """
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    run_dir = os.path.join(OUT_ROOT, workload)
    shutil.rmtree(run_dir, ignore_errors=True)

    def setup_only(i):
        proc, setup = _start(workload, seed,
                             os.path.join(run_dir, f"setup{i}"),
                             ["--setup-only"], deadline)
        _finish(proc, deadline)
        if proc.returncode != 0:
            raise RunError(f"set-up worker exited {proc.returncode}")
        return setup

    # Half of the set-up samples come before the passes and half after,
    # so that their median does not hang on the machine's speed at one
    # moment.
    setups = [setup_only(i) for i in range(SETUP_SAMPLES // 2)]
    proc, setup = _start(workload, seed, os.path.join(run_dir, "run"),
                         ["--seconds", str(seconds), "--trace", str(trace)],
                         deadline)
    setups.append(setup)
    out = _finish(proc, deadline)
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    setups += [setup_only(i)
               for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    return setups, json.loads(out.strip().splitlines()[-1])


def normalized_walls(passes):
    """Untraced pass times at the probe's reference speed (see probe.py)."""
    return [p["wall_s"] * probe.REFERENCE_S / p["probe_mean_s"]
            for p in passes if not p["traced"]]


def end_to_end_metrics(setups, passes, peak_rss_mb):
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_norm_s": (statistics.median(normalized_walls(passes)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for group in tracer.ALL_GROUPS:
        metrics[f"{group}.self_s"] = (
            statistics.median([p["groups"][group] for p in traced]), "s")
    metrics["cli.self_s"] = (statistics.median(
        [p["wall_s"] - p["top_level_s"] for p in traced]), "s")
    for name in tracer.COUNTERS:
        metrics[name] = (traced[-1]["counts"][name], "count")
    metrics["trace.overhead_s"] = (
        statistics.median([p["wall_s"] for p in traced])
        - statistics.median([p["wall_s"] for p in plain]), "s")
    return metrics


def _seconds(values):
    return " ".join(f"{v:.3f}" for v in values) + " s"


def _consistency_problems(passes):
    """Every pass must write the same CSV bytes, traced or not."""
    first = passes[0]["csv_sha256"]
    return [f"pass {i} wrote different CSV bytes than pass 0"
            for i, p in enumerate(passes[1:], start=1)
            if p["csv_sha256"] != first]


def _write_reference(workload, primary):
    reference = {}
    if os.path.exists(checks.REFERENCE_PATH):
        with open(checks.REFERENCE_PATH) as fh:
            reference = json.load(fh)
    reference[workload] = primary
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, primary.values()))} reference rows for "
          f"{workload} to {checks.REFERENCE_PATH}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store one pass's primary error values as the "
                             "workload's reference instead of checking them")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "helmholtz_lab", "cli.py")):
        print("perfbench: run from the root of a helmholtz-lab checkout "
              "(src/helmholtz_lab not found)", file=sys.stderr)
        return 2
    try:
        setups, result = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    if args.write_reference:
        _write_reference(args.workload, passes[0]["primary"])
        return 0
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [line for p in passes for line in p["problems"]]
    problems += _consistency_problems(passes)
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(setups, passes, result["peak_rss_mb"])

    walls = [p["wall_s"] for p in passes if not p["traced"]]
    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  env {json.dumps(result['env'])}")
    print(f"set-up samples: {_seconds(r for r, _ in setups)}")
    print(f"set-up samples at the probe's reference speed: "
          f"{_seconds(s for _, s in setups)}")
    print(f"untraced passes: {_seconds(walls)}")
    print(f"untraced passes at the probe's reference speed: "
          f"{_seconds(normalized_walls(passes))}")
    plain = [p for p in passes if not p["traced"]]
    means = " ".join(f"{p['probe_mean_s'] * 1e3:.4f}" for p in plain)
    print(f"probe (reference {probe.REFERENCE_S * 1e3:.4g} ms): mean per "
          f"untraced pass {means} ms, "
          f"{sum(p['probe_count'] for p in plain)} samples")
    if traced_walls:
        print(f"traced passes: {_seconds(traced_walls)}")
    print(f"{len(walls)} untraced passes, wall_s median "
          f"{statistics.median(walls):.6g} s, slowest {max(walls):.6g} s")
    print(f"fail_rate                      {failed / max(attempted, 1):.6g}"
          f"  ({failed} of {attempted} rows)")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
