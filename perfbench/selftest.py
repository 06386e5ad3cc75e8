"""Self-test of the benchmark's checks and tracing.

Usage, from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

For each workload it makes one traced run (an untraced pass, then a
traced pass) and checks that:

- the seed code gives fail_rate 0, and both passes write byte-identical
  CSVs;
- the speed probe sampled the untraced pass and not the traced one;
- the per-group self times are non-negative and, with the CLI's share,
  sum to the traced wall time;
- every per-layer metric the benchmark maps to the workload is nonzero;
- a perturbed reference value, an injected error row, a non-finite or
  non-numeric value, a residual above the bound and a missing row each
  make the row checks fail, so fail_rate rises above 0.

Exit code 0 when every check holds, 1 otherwise.
"""

import os
import sys

import checks
import run as bench

# Per-layer metrics that must be nonzero on a workload, following the
# layer -> end-to-end map in README.md.
NONZERO = {
    "sweep_1d": ("assembly.galerkin.self_s", "analysis.volume.self_s",
                 "assembly.solve.self_s", "assembly.gram.self_s",
                 "assembly.infsup.self_s", "methods.self_s", "cli.self_s"),
    "fem2d_h": ("assembly.solve.self_s", "assembly.galerkin.self_s",
                "analysis.volume.self_s", "spaces.self_s", "meshing.self_s",
                "assembly.solve.lu_fill_nnz"),
    "fem2d_p": ("assembly.galerkin.self_s", "numerics.bessel.self_s",
                "numerics.bessel.calls", "numerics.bessel.points",
                "meshing.self_s", "assembly.solve.lu_fill_nnz"),
    "trefftz": ("assembly.solve.self_s", "assembly.skeleton.self_s",
                "analysis.skeleton.self_s", "assembly.gram.self_s",
                "numerics.bessel.self_s", "numerics.bessel.calls",
                "numerics.bessel.points"),
}
SIZE_COUNTS = ("meshing.elements", "assembly.ndof", "assembly.nnz",
               "assembly.solve.calls")


def _injections(text, reference):
    """Copies of a passing CSV and reference, each with one fault."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = lines[1].rstrip("\n").split(",")

    def with_cell(column, value):
        cells = list(row)
        cells[header.index(column)] = value
        return "".join([lines[0], ",".join(cells) + "\n"] + lines[2:])

    key = checks.row_key(dict(zip(header, row)))
    primary = checks.PRIMARY[row[header.index("method")]]
    perturbed = dict(reference)
    perturbed[key] = reference[key] * (1.0 + 1e-3)
    return {
        "perturbed reference": (text, perturbed),
        "injected error row": (with_cell("error", "LinAlgError: boom"),
                               reference),
        "non-finite value": (with_cell(primary, "nan"), reference),
        "non-numeric value": (with_cell(primary, "n/a"), reference),
        "residual above bound": (with_cell("solve_residual", "1e-3"),
                                 reference),
        "missing row": ("".join(lines[:1] + lines[2:]), reference),
    }


def check_workload(workload, failures):
    def expect(condition, message):
        if not condition:
            failures.append(f"{workload}: {message}")

    _, result = bench.run_workload(workload, seed=1, seconds=0, trace=1)
    plain, traced = result["passes"]
    for record in (plain, traced):
        expect(record["failed"] == 0,
               f"seed code fails rows: {record['problems'][:3]}")
    expect(plain["csv_sha256"] == traced["csv_sha256"],
           "traced and untraced passes wrote different CSVs")
    expect(plain["probe_count"] > 1 and plain["probe_mean_s"] > 0.0,
           "the speed probe did not sample the untraced pass")
    expect("probe_count" not in traced,
           "the speed probe sampled the traced pass")

    groups = traced["groups"]
    expect(all(v >= 0.0 for v in groups.values()),
           f"negative self time: {groups}")
    cli_self = traced["wall_s"] - traced["top_level_s"]
    total = sum(groups.values()) + cli_self
    expect(abs(total - traced["wall_s"]) <= 1e-6 * traced["wall_s"],
           f"self times sum to {total}, traced wall is {traced['wall_s']}")
    expect(cli_self > 0.0, "cli.self_s is not positive")

    metrics = bench.per_layer_metrics(result["passes"])
    for name in NONZERO[workload] + SIZE_COUNTS:
        expect(metrics[name][0] > 0, f"{name} is {metrics[name][0]}")

    reference = checks.load_reference(workload)
    out_dir = os.path.join(bench.OUT_ROOT, workload, "run")
    for name, ref in reference.items():
        with open(os.path.join(out_dir, name + ".csv")) as fh:
            text = fh.read()
        attempted, problems = checks.check_csv(text, ref)
        expect(attempted == len(ref) and not problems,
               f"{name}: seed CSV fails its reference: {problems[:3]}")
        for fault, (bad_text, bad_ref) in _injections(text, ref).items():
            attempted, problems = checks.check_csv(bad_text, bad_ref)
            expect(len(problems) / attempted > 0,
                   f"{name}: {fault} leaves fail_rate at 0")
    print(f"{workload}: checked", flush=True)


def main():
    failures = []
    for workload in bench.WORKLOADS:
        check_workload(workload, failures)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
