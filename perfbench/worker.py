"""One benchmark process: build a workload's configs, then sweep them.

Started by `run.py` as a fresh interpreter with the BLAS and worker-pool
thread counts pinned to 1 and `src` on the path.  It drives the package
only through `helmholtz_lab.cli.main(["run", <config>])`, the call behind
`helmholtz run <config>`.

Protocol on standard output: the line `ready <overhead_s> <probe_mean_s>`
once the package is imported and the configs are built (the end of
set-up), with the time the speed probe of `probe.py` took during set-up
and its mean, then, unless `--setup-only` is given, one JSON line with
the per-pass results.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import checks
import probe

# Set for every benchmark process before it imports anything: one BLAS
# thread and one CLI worker.  With OpenBLAS's default of two threads on a
# 2-CPU machine, the pass times of sweep_1d varied twice as much.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "HELMHOLTZ_THREADS": "1",
}


def _h_list(*ns):
    return ",".join(repr(1.0 / n) for n in ns)


# Each workload is a list of (name, config keys), one `helmholtz run`
# each.  The sweeps are spelled out here instead of naming the package's
# presets, so that a change to a preset cannot silently change the
# benchmark; the comments name the preset each config equals at the time
# the benchmark was defined.
WORKLOADS = {
    # Many tiny 1D systems: per-element Python in assembly and error
    # sums; sparse LU and the 2D kernels are nearly idle.
    "sweep_1d": [
        ("fig1_1d_pollution", {  # preset fig1_1d_pollution
            "method": "fem", "domain": "interval", "k": "1,10,100",
            "p": "1,2,3,4",
            "n_elements": "4,6,8,12,16,24,32,48,64,96,128,192,256"}),
        ("nodal_exact_1d", {  # preset nodal_exact_1d
            "method": "nodal", "domain": "interval", "k": "10",
            "n_elements": "16,32,64,128"}),
        ("infsup_1d", {  # preset infsup_1d
            "method": "infsup", "domain": "interval", "k": "4,8,16,32",
            "p": "1", "khp": "0.25"}),
    ],
    # A few large sparse systems (7k-37k dofs): sparse LU fill and the
    # vectorized 2D assembly and error kernels.  The k=40 ladder of the 2D
    # h-slope acceptance gate without its two largest points per order, so
    # that a run holds several passes.
    "fem2d_h": [
        ("square_k40_p1", {"method": "fem", "domain": "square", "k": "40",
                           "p": "1", "h": _h_list(128, 192)}),
        ("square_k40_p2", {"method": "fem", "domain": "square", "k": "40",
                           "p": "2", "h": _h_list(48, 64)}),
        ("square_k40_p3", {"method": "fem", "domain": "square", "k": "40",
                           "p": "3", "h": _h_list(24, 32)}),
    ],
    # High p (up to 8) on few, graded elements with a fractional-order
    # Bessel exact solution; the only workload running geometric_refine.
    "fem2d_p": [
        ("lshape_singular", {  # preset lshape_singular
            "method": "fem", "domain": "lshape", "exact": "bessel_singular",
            "k": "1,10", "p": "1,2,3,4,5,6,7,8", "h": "0.35"}),
        ("fig3_lshape_pfem", {  # preset fig3_lshape_pfem
            "method": "fem", "domain": "lshape", "exact": "pw2d",
            "robin_sign": "-1", "k": "10", "p": "1,2,3,4,5,6,7,8",
            "h": "0.4", "sigma": "0.125", "layers": "10"}),
    ],
    # The non-conforming path: dense skeleton assembly, truncated SVD and
    # integer-order Bessel functions in the GHP basis.  The largest least
    # squares points (h=1/8 at p=9 and 11) are left out so that a run
    # holds several passes.
    "trefftz": [
        ("ls_k10", {"method": "ls", "domain": "square", "k": "10",
                    "p": "5,7,9,11", "h": "0.25"}),
        ("ls_k10_fine", {"method": "ls", "domain": "square", "k": "10",
                         "p": "5,7", "h": "0.125"}),
        ("uwvf_k10", {"method": "uwvf", "domain": "square", "k": "10",
                      "p": "5,7,9,11", "h": "0.25,0.125", "flux": "uwvf"}),
        ("uwvf_k10_fine", {"method": "uwvf", "domain": "square", "k": "10",
                           "p": "5,7", "h": "0.0625", "flux": "uwvf"}),
        ("approx_trefftz", {  # preset approx_trefftz
            "method": "approx", "domain": "square", "k": "8",
            "p": "1,2,3,4,5,6,7,8,9,10"}),
    ],
}

_LIST_KEYS = ("k", "p", "h", "n_elements")


def config_texts(workload, seed, out_dir):
    """The workload's configs as (name, text), ordered by the seed.

    The seed permutes the order of the configs and of every list value.
    Rows are computed independently and the CLI writes them sorted, so
    the CSVs do not depend on it.
    """
    rng = random.Random(seed)
    entries = list(WORKLOADS[workload])
    rng.shuffle(entries)
    texts = []
    for name, keys in entries:
        lines = []
        for key, value in keys.items():
            if key in _LIST_KEYS:
                items = value.split(",")
                rng.shuffle(items)
                value = ",".join(items)
            lines.append(f"{key} = {value}")
        lines.append("threads = 1")
        lines.append(f"out = {os.path.join(out_dir, name + '.csv')}")
        texts.append((name, "\n".join(lines) + "\n"))
    return texts


def run_pass(cli, cfg_paths, out_dir, reference, sample_speed):
    """One sweep over all configs; returns its result record.

    With `sample_speed`, the machine-speed probe of `probe.py` samples the
    pass; the time it takes is not part of the pass's wall time.
    """
    codes = {}
    for name, _ in cfg_paths:
        csv_path = os.path.join(out_dir, name + ".csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
    sampler = probe.Sampler() if sample_speed else contextlib.nullcontext()
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), sampler:
        for name, path in cfg_paths:
            try:
                codes[name] = cli.main(["run", path])
            except Exception as exc:  # a crash fails the config's rows
                codes[name] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    record = {"wall_s": wall, "attempted": 0, "failed": 0, "problems": [],
              "csv_sha256": {}, "primary": {}}
    if sample_speed:
        record["wall_s"] -= sampler.overhead_s
        record["probe_mean_s"] = sampler.mean()
        record["probe_count"] = len(sampler.samples)
    for name, _ in cfg_paths:
        csv_path = os.path.join(out_dir, name + ".csv")
        text = ""
        if os.path.exists(csv_path):
            with open(csv_path, newline="") as fh:
                text = fh.read()
        record["csv_sha256"][name] = hashlib.sha256(
            text.encode()).hexdigest()
        attempted, problems = checks.check_csv(text, reference.get(name))
        if codes[name] != 0 and not problems:
            problems.append(f"exit code {codes[name]}")
        record["attempted"] += attempted
        record["failed"] += min(len(problems), max(attempted, 1))
        record["problems"] += [f"{name}: {p}" for p in problems]
        record["primary"][name] = checks.primary_values(text)
    del record["problems"][20:]
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with probe.Sampler() as sampler:
        from helmholtz_lab import cli

        cfg_paths = []
        for name, text in config_texts(args.workload, args.seed, args.out):
            cli.build_config(cli.parse_config_text(text))
            path = os.path.join(args.out, name + ".cfg")
            with open(path, "w") as fh:
                fh.write(text)
            cfg_paths.append((name, path))
    print(f"ready {sampler.overhead_s!r} {sampler.mean()!r}", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy

    reference = checks.load_reference(args.workload)
    if args.trace:
        import tracer as tracing
    passes = []
    last_tracer = None
    started = time.perf_counter()
    # A traced run alternates untraced and traced passes, so that both
    # see the same machine state; an untraced run repeats untraced passes.
    while True:
        tracer = tracing.Tracer() if args.trace and len(passes) % 2 else None
        if tracer:
            tracer.install()
        try:
            record = run_pass(cli, cfg_paths, args.out, reference,
                              sample_speed=tracer is None)
        finally:
            if tracer:
                tracer.uninstall()
        record["traced"] = tracer is not None
        if tracer:
            record["groups"] = tracer.group_self_times()
            record["top_level_s"] = tracer.top_level_time()
            record["counts"] = {name: tracer.counts.get(name, 0)
                                for name in tracing.COUNTERS}
            last_tracer = tracer
        passes.append(record)
        elapsed = time.perf_counter() - started
        typical = sorted(p["wall_s"] for p in passes)[len(passes) // 2]
        if (len(passes) >= 1 + args.trace
                and elapsed + typical > args.seconds):
            break
    if last_tracer:
        last_tracer.write_spans(os.path.join(args.out, "spans.csv"))

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            **{key: os.environ.get(key) for key in PINNED_ENV},
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
