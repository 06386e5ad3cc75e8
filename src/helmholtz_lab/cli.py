"""Config-driven experiment harness with presets and CSV reports.

Configs are flat ``key = value`` text files; list values are comma
separated ("k = 1,10,100").  Every run emits one CSV row per
(method, k, h, p) combination with a fixed column set, and fitted
convergence slopes per series are printed to standard output.  Rows are
computed by a worker pool but always written in sorted order, so a given
config reproduces its CSV byte for byte.

Two tables hold what the harness knows: `_METHODS` gives each method's
keys, domains, swept lists and row runner, and `_PROBLEMS` gives the
problem builder of each (domain, exact solution) pair; `mesh-dump` meshes
the polygon of a domain's default problem from it.
"""

import argparse
import collections
import concurrent.futures
import itertools
import math
import os
import sys
import time

import numpy as np

from . import analysis
from . import assembly
from . import meshing
from . import methods
from . import spaces

COLUMNS = [
    "method", "domain", "k", "h", "p", "L", "sigma", "dofs", "n_lambda",
    "err_h1semi_rel", "err_l2_rel", "err_1k_rel", "err_dg", "j_value",
    "nodal_max", "gamma_n", "solve_residual", "wall_ms", "error",
]

# Primary error column used when fitting slopes for a method's series.
_PRIMARY_ERR = {
    "fem": "err_h1semi_rel",
    "nodal": "err_h1semi_rel",
    "ls": "err_l2_rel",
    "uwvf": "err_dg",
    "approx_pw": "err_1k_rel",
    "approx_ghp": "err_1k_rel",
}


class ConfigError(Exception):
    """Config problem attributable to a single key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"key '{key}': {message}")


# -- presets -------------------------------------------------------------------

PRESETS = {
    "fig1_1d_pollution": {
        "method": "fem", "domain": "interval", "k": "1,10,100",
        "p": "1,2,3,4",
        "n_elements": "4,6,8,12,16,24,32,48,64,96,128,192,256",
    },
    "fig2_square": {
        "method": "fem", "domain": "square", "k": "4,40", "p": "1,2,3",
        "h": "0.25,0.125,0.0625,0.03125",
    },
    "fig3_lshape_pfem": {
        "method": "fem", "domain": "lshape", "exact": "pw2d",
        "robin_sign": "-1", "k": "10", "p": "1,2,3,4,5,6,7,8", "h": "0.4",
        "sigma": "0.125", "layers": "10",
    },
    "lshape_singular": {
        "method": "fem", "domain": "lshape", "exact": "bessel_singular",
        "k": "1,10", "p": "1,2,3,4,5,6,7,8", "h": "0.35",
    },
    "uwvf_square": {
        "method": "uwvf", "domain": "square", "k": "10", "p": "3,5,7,9,11",
        "h": "0.5,0.25", "flux": "uwvf",
    },
    "ls_square": {
        "method": "ls", "domain": "square", "k": "10", "p": "3,5,7,9,11",
        "h": "0.5,0.25",
    },
    "infsup_1d": {
        "method": "infsup", "domain": "interval", "k": "4,8,16,32",
        "p": "1", "khp": "0.25",
    },
    "approx_trefftz": {
        "method": "approx", "domain": "square", "k": "8",
        "p": "1,2,3,4,5,6,7,8,9,10",
    },
    "nodal_exact_1d": {
        "method": "nodal", "domain": "interval", "k": "10",
        "n_elements": "16,32,64,128",
    },
}

# Wall time of `helmholtz preset <name>` including interpreter start-up,
# measured with the default worker count on a 2-CPU desk machine.
PRESET_INFO = {
    "fig1_1d_pollution": ("~1 s",
                          "1D impedance problem, h-FEM sweep over k and p;"
                          " the classic pollution picture"),
    "fig2_square": ("~2 s",
                    "plane wave on the unit square, h-FEM at p=1..3"),
    "fig3_lshape_pfem": ("~1 s",
                         "plane wave on the L-shape, p-FEM on a mesh graded"
                         " into the reentrant corner"),
    "lshape_singular": ("~1 s",
                        "corner-singular Bessel solution on the L-shape,"
                        " p-FEM on a quasi-uniform mesh"),
    "uwvf_square": ("<1 s",
                    "plane-wave DG with UWVF fluxes on the unit square"),
    "ls_square": ("<1 s",
                  "plane-wave least squares on the unit square"),
    "infsup_1d": ("<1 s",
                  "discrete inf-sup constant of the 1D model vs k at fixed"
                  " kh/p"),
    "approx_trefftz": ("~1.5 s",
                       "best-approximation study of plane-wave and"
                       " evanescent-augmented local bases"),
    "nodal_exact_1d": ("<1 s",
                       "wave-adapted 1D space; nodal errors at machine"
                       " scale"),
}


# -- problems and methods --------------------------------------------------------

# The problem builder of each (domain, exact) pair, called as
# builder(k, robin_sign=s), or as builder(k) to take its default sign
# when the config leaves robin_sign unset.  A domain's first entry is its
# default exact solution.
_PROBLEMS = {
    ("interval", "model1d"): methods.model_problem_1d,
    ("square", "pw2d"): methods.plane_wave_problem,
    ("lshape", "bessel_singular"): methods.lshape_singular_problem,
    ("lshape", "pw2d"): methods.lshape_plane_wave_problem,
}
_DOMAINS = tuple(dict.fromkeys(domain for domain, _ in _PROBLEMS))
_EXACT = tuple(dict.fromkeys(exact for _, exact in _PROBLEMS))


def _exacts(domain):
    """The exact solutions of the domain's problems, its default first."""
    return [exact for dom, exact in _PROBLEMS if dom == domain]


def _problem(cfg, k):
    builder = _PROBLEMS[cfg["domain"], cfg["exact"]]
    if cfg["robin_sign"] is None:
        return builder(k)
    return builder(k, robin_sign=cfg["robin_sign"])


def _report_into_row(row, out):
    rep = out.report
    row["h"] = rep.h
    row["dofs"] = rep.dofs
    row["n_lambda"] = rep.n_lambda
    row["err_h1semi_rel"] = rep.h1_semi_rel
    row["err_l2_rel"] = rep.l2_rel
    row["err_1k_rel"] = rep.norm_1k_rel
    row["err_dg"] = rep.dg_norm
    row["j_value"] = rep.j_value
    row["nodal_max"] = rep.nodal_max
    row["gamma_n"] = rep.gamma_n
    row["solve_residual"] = out.checks.get("solve_residual")


# Each runner fills one row; `row["h"]` arrives as the task's mesh size
# (1/n_elements on the interval).


def _h1_space(cfg, problem, h, p, row):
    """The order-p H1 space on the mesh of the problem's domain at h,
    graded into the configured corners when sigma is set (and recorded in
    the row)."""
    mesh = meshing.triangulate(problem.domain, h)
    if cfg["sigma"] is not None:
        mesh = meshing.geometric_refine(mesh, cfg["corners"] or [(0.0, 0.0)],
                                        cfg["sigma"], cfg["layers"])
        row["sigma"] = cfg["sigma"]
        row["L"] = cfg["layers"]
    return spaces.h1_space(mesh, p)


def _run_fem(cfg, task, row):
    problem = _problem(cfg, task["k"])
    space = _h1_space(cfg, problem, row["h"], task["p"], row)
    _report_into_row(row, methods.solve_fem(problem, space))


def _run_nodal(cfg, task, row):
    out = methods.solve_nodally_exact_1d(_problem(cfg, task["k"]),
                                         task["n_elements"])
    _report_into_row(row, out)


def _trefftz_space(domain, h, k, basis):
    mesh = meshing.triangulate(domain, h)
    return spaces.trefftz_space(mesh, k, basis)


def _run_ls(cfg, task, row):
    problem = _problem(cfg, task["k"])
    basis = spaces.PlaneWaveBasis(task["k"], task["p"])
    space = _trefftz_space(problem.domain, task["h"], task["k"], basis)
    out = methods.solve_least_squares(
        problem, space, w1=cfg["w1"], w2=cfg["w2"],
        svd_cutoff=cfg["svd_cutoff"])
    _report_into_row(row, out)


def _run_uwvf(cfg, task, row):
    problem = _problem(cfg, task["k"])
    basis = spaces.PlaneWaveBasis(task["k"], task["p"])
    space = _trefftz_space(problem.domain, task["h"], task["k"], basis)
    flux = (cfg["flux_params"] if cfg["flux_params"] is not None
            else cfg["flux"])
    out = methods.solve_pwdg(problem, space, flux=flux)
    _report_into_row(row, out)


def _run_infsup(cfg, task, row):
    k, p = task["k"], task["p"]
    problem = _problem(cfg, k)
    n = max(p, round(k / (cfg["khp"] * p)))
    space = _h1_space(cfg, problem, 1.0 / n, p, row)
    _report_into_row(row, methods.infsup_constant(problem, space))


def _run_approx(cfg, task, row):
    k = task["k"]
    angle = 0.3
    exact = methods.plane_wave_2d(
        k, direction=(math.cos(angle), math.sin(angle)))
    basis = cfg["kind"][task["kind"]](k, task["p"])
    space = _trefftz_space(meshing.unit_square(),
                           cfg["h"][0] if cfg["h"] else 0.35, k, basis)
    out = methods.best_approximation_1k(exact, space, cfg["svd_cutoff"])
    _report_into_row(row, out)


# Per method: the keys it reads on top of _COMMON_KEYS, the domains it
# runs on (a single one is the default), the config lists whose product
# gives its rows, and the runner that fills one row.  A list the config
# leaves unset (h on the interval, n_elements in 2D) is not swept; `kind`
# is the pair of local bases of the approximation study.
_Method = collections.namedtuple("_Method", "reads domains sweeps run")

_METHODS = {
    "fem": _Method({"p", "h", "n_elements", "sigma", "layers", "corners",
                    "robin_sign"},
                   _DOMAINS, ("k", "p", "n_elements", "h"), _run_fem),
    "nodal": _Method({"h", "n_elements", "robin_sign"},
                     ("interval",), ("k", "p", "n_elements"), _run_nodal),
    "ls": _Method({"p", "h", "w1", "w2", "svd_cutoff"},
                  ("square",), ("k", "p", "h"), _run_ls),
    "uwvf": _Method({"p", "h", "flux", "alpha", "beta", "delta"},
                    ("square",), ("k", "p", "h"), _run_uwvf),
    "infsup": _Method({"p", "khp", "robin_sign"},
                      ("interval",), ("k", "p"), _run_infsup),
    "approx": _Method({"p", "h", "svd_cutoff"},
                      ("square",), ("kind", "k", "p"), _run_approx),
}

# The keys every method reads; a config giving a key neither these nor
# its method's reads name, by itself or through its preset, is refused
# rather than silently ignored.
_COMMON_KEYS = {"preset", "method", "domain", "exact", "k", "out", "threads",
                "timing"}


# -- config parsing ------------------------------------------------------------


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got '{text}'")
    if not math.isfinite(value):
        raise ConfigError(key, f"expected a finite number, got '{text}'")
    return value


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got '{text}'")


def _parse_float_list(key, text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    return [_parse_float(key, t) for t in items]


def _parse_int_list(key, text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    return [_parse_int(key, t) for t in items]


def _parse_bool(key, text):
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"expected true/false, got '{text}'")


def _parse_choice(options):
    def parse(key, text):
        val = text.strip()
        if val not in options:
            raise ConfigError(key, f"'{val}' is not one of {list(options)}")
        return val
    return parse


def _parse_corners(key, text):
    # only 2D runs are graded, so every corner is a point 'x,y'
    corners = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [_parse_float(key, t) for t in chunk.split(",")]
        if len(coords) != 2:
            raise ConfigError(key, f"corner '{chunk}' needs two coordinates "
                                   f"'x,y'")
        corners.append(tuple(coords))
    if not corners:
        raise ConfigError(key, "expected at least one corner")
    return corners


def _parse_str(key, text):
    return text.strip()


_KEY_PARSERS = {
    "preset": _parse_choice(tuple(PRESETS)),
    "method": _parse_choice(_METHODS),
    "domain": _parse_choice(_DOMAINS),
    "exact": _parse_choice(_EXACT),
    "k": _parse_float_list,
    "p": _parse_int_list,
    "h": _parse_float_list,
    "n_elements": _parse_int_list,
    "sigma": _parse_float,
    "layers": _parse_int,
    "corners": _parse_corners,
    "flux": _parse_choice(methods._FLUX_PRESETS),
    "alpha": _parse_float,
    "beta": _parse_float,
    "delta": _parse_float,
    "w1": _parse_float,
    "w2": _parse_float,
    "svd_cutoff": _parse_float,
    "khp": _parse_float,
    "robin_sign": _parse_float,
    "out": _parse_str,
    "threads": _parse_int,
    "timing": _parse_bool,
}


def parse_config_text(text):
    """Parse flat key-value config text into a dict of raw strings."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(body.split()[0],
                              f"line {lineno} is not 'key = value'")
        key, value = body.split("=", 1)
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(key, "unknown config key")
        raw[key] = value.strip()
    return raw


def _check_mesh_sizes(hs):
    # checked before an interval run turns h into 1/h elements
    if not all(h > 0 and 1.0 / h < math.inf for h in hs):
        raise ConfigError("h", "mesh sizes must be positive with a finite 1/h")


def build_config(raw):
    """Expand preset defaults, parse values, cross-validate; returns a dict."""
    raw = dict(raw)
    merged = {}
    preset = raw.get("preset")
    if preset is not None:
        preset = _KEY_PARSERS["preset"]("preset", preset)
        merged.update(PRESETS[preset])
    merged.update(raw)

    cfg = {key: None for key in _KEY_PARSERS}
    for key, value in merged.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(key, "unknown config key")
        cfg[key] = _KEY_PARSERS[key](key, value)

    method = cfg["method"]
    if method is None:
        raise ConfigError("method", "required (or give a preset)")
    spec = _METHODS[method]
    for key in merged:
        if key not in _COMMON_KEYS | spec.reads:
            origin = "" if key in raw else f" (set by preset '{preset}')"
            raise ConfigError(key, f"method '{method}' never reads it{origin}")
    if cfg["domain"] is None:
        if len(spec.domains) > 1:
            raise ConfigError("domain", f"required for method '{method}'")
        cfg["domain"] = spec.domains[0]
    domain = cfg["domain"]
    if domain not in spec.domains:
        raise ConfigError("domain", f"method '{method}' runs on the "
                                    f"{' or '.join(spec.domains)}")

    if not cfg["k"]:
        raise ConfigError("k", "must be a non-empty list")
    if any(k < 1.0 for k in cfg["k"]):
        raise ConfigError("k", "wavenumbers below 1 are not supported")

    exacts = _exacts(domain)
    if cfg["exact"] is None:
        cfg["exact"] = exacts[0]
    if cfg["exact"] not in exacts:
        raise ConfigError("exact", f"{domain} runs use {' or '.join(exacts)}")

    if not cfg["p"]:
        if method not in ("nodal", "infsup"):
            raise ConfigError("p", "must be a non-empty list")
        cfg["p"] = [1]
    if any(p < 1 for p in cfg["p"]):
        raise ConfigError("p", "orders must be positive")

    for key in ("h", "n_elements"):
        if cfg[key] == []:
            raise ConfigError(key, "must be a non-empty list")
    if cfg["h"] is not None and cfg["n_elements"] is not None:
        raise ConfigError("h", "give either h or n_elements, not both")
    if cfg["n_elements"] is not None and domain != "interval":
        raise ConfigError("n_elements", "element counts are for interval runs")
    if cfg["h"] is not None:
        _check_mesh_sizes(cfg["h"])
    if "n_elements" in spec.sweeps and domain == "interval":
        if cfg["n_elements"] is None:
            if cfg["h"] is None:
                raise ConfigError("n_elements",
                                  "interval runs need n_elements or h")
            cfg["n_elements"] = [max(1, round(1.0 / h)) for h in cfg["h"]]
            cfg["h"] = None
    elif "h" in spec.sweeps and cfg["h"] is None:
        raise ConfigError("h", f"method '{method}' needs an h list")
    if method == "approx" and cfg["h"] is not None and len(cfg["h"]) > 1:
        raise ConfigError("h", "method 'approx' reads a single mesh size")
    if cfg["n_elements"] is not None and any(n < 1 for n in cfg["n_elements"]):
        raise ConfigError("n_elements", "element counts must be positive")

    if (cfg["sigma"] is None) != (cfg["layers"] is None):
        raise ConfigError("sigma", "grading needs both sigma and layers")
    if cfg["corners"] is not None and cfg["sigma"] is None:
        raise ConfigError("corners", "corners are read only for grading, "
                                     "with sigma and layers")
    if cfg["sigma"] is not None:
        if domain == "interval":
            raise ConfigError("sigma", "grading applies to 2D fem runs")
        if not 0.0 < cfg["sigma"] < 1.0:
            raise ConfigError("sigma", "grading factor must be in (0, 1)")
        if cfg["layers"] < 1:
            raise ConfigError("layers", "need at least one layer")

    if cfg["robin_sign"] not in (None, 1.0, -1.0):
        raise ConfigError("robin_sign", "must be +1 or -1")

    flux_overrides = [cfg["alpha"], cfg["beta"], cfg["delta"]]
    if any(v is not None for v in flux_overrides):
        if any(v is None for v in flux_overrides):
            raise ConfigError("alpha",
                              "flux overrides need alpha, beta and delta")
        for key in ("alpha", "beta"):
            if not cfg[key] > 0.0:
                raise ConfigError(key, "flux parameter must be positive")
        if not 0.0 < cfg["delta"] < 1.0:
            raise ConfigError("delta", "flux parameter must lie in (0, 1)")
        cfg["flux_params"] = assembly.FluxParams(
            alpha=cfg["alpha"], beta=cfg["beta"], delta=cfg["delta"])
    else:
        cfg["flux_params"] = None
    if cfg["flux"] is None:
        cfg["flux"] = "uwvf"

    for key in ("w1", "w2", "svd_cutoff"):
        if cfg[key] is not None and not cfg[key] > 0.0:
            raise ConfigError(key, "must be positive")
    if cfg["svd_cutoff"] is None:
        cfg["svd_cutoff"] = 1e-12
    if cfg["khp"] is None:
        cfg["khp"] = 0.25
    if cfg["khp"] <= 0:
        raise ConfigError("khp", "resolution ratio must be positive")
    # the local bases of the approximation study, swept by `approx`
    cfg["kind"] = {"pw": spaces.PlaneWaveBasis, "ghp": spaces.GhpBasis}

    if cfg["out"] is None:
        cfg["out"] = "results.csv"
    if cfg["timing"] is None:
        cfg["timing"] = False
    if cfg["threads"] is not None and cfg["threads"] < 1:
        raise ConfigError("threads", "worker count must be positive")
    return cfg


def _worker_count(cfg):
    env = os.environ.get("HELMHOLTZ_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ConfigError("threads",
                              f"HELMHOLTZ_THREADS must be an integer, "
                              f"got '{env}'")
        if count < 1:
            raise ConfigError("threads", "HELMHOLTZ_THREADS must be >= 1")
        return count
    if cfg["threads"] is not None:
        return cfg["threads"]
    return os.cpu_count() or 1


# -- run expansion and execution -------------------------------------------------


def expand_runs(cfg):
    """Cartesian sweep of the config: one task dict per CSV row."""
    method = cfg["method"]
    axes = [key for key in _METHODS[method].sweeps if cfg[key] is not None]
    return [dict(zip(axes, values), method=method)
            for values in itertools.product(*(cfg[key] for key in axes))]


def _run_task(cfg, task):
    """Run one task into its CSV row; an exception flags the row."""
    row = {name: None for name in COLUMNS}
    row["method"] = task["method"] + (f"_{task['kind']}" if "kind" in task
                                      else "")
    row["domain"] = cfg["domain"]
    row["k"] = float(task["k"])
    row["p"] = task.get("p")
    row["h"] = (1.0 / task["n_elements"] if "n_elements" in task
                else task.get("h"))
    row["error"] = ""
    started = time.perf_counter()
    try:
        _METHODS[task["method"]].run(cfg, task, row)
    except Exception as exc:
        row["error"] = _sanitize(f"{type(exc).__name__}: {exc}")
        return row
    if cfg["timing"]:
        row["wall_ms"] = (time.perf_counter() - started) * 1e3
    return row


def _sanitize(text):
    return str(text).replace(",", ";").replace("\n", " ").strip()


def _sort_key(row):
    return (
        row["method"], row["domain"], row["k"],
        row["p"] if row["p"] is not None else -1,
        -(row["h"] if row["h"] is not None else 0.0),
        row["dofs"] if row["dofs"] is not None else -1,
    )


def execute_runs(cfg, tasks):
    """Run all tasks on a worker pool; returns (sorted rows, failure flag)."""
    workers = _worker_count(cfg)
    if workers == 1 or len(tasks) <= 1:
        rows = [_run_task(cfg, task) for task in tasks]
    else:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            rows = list(pool.map(lambda t: _run_task(cfg, t), tasks))
    rows.sort(key=_sort_key)
    failed = any(row["error"] for row in rows)
    return rows, failed


# -- CSV and slope reporting ------------------------------------------------------


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return _sanitize(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def rows_to_csv_text(rows):
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def _fit_line(pairs, label):
    try:
        slope, _, r2 = analysis.fit_rate(pairs)
    except ValueError:
        return None
    return f"slope {label}: {slope:+.3f} (r2={r2:.4f}, {len(pairs)} pts)"


def series_slopes(rows):
    """Fitted log-log slopes for every (k, p) series with >= 3 points."""
    lines = []
    h_groups = {}
    p_groups = {}
    k_groups = {}
    for row in rows:
        method = row["method"]
        err_name = _PRIMARY_ERR.get(method)
        if method == "infsup":
            if row["gamma_n"] is not None and row["gamma_n"] > 0:
                key = (method, row["domain"], row["p"])
                k_groups.setdefault(key, []).append(
                    (row["k"], row["gamma_n"]))
            continue
        if err_name is None:
            continue
        err = row[err_name]
        if err is None or err <= 0 or not row["n_lambda"]:
            continue
        hkey = (method, row["domain"], row["k"], row["p"], err_name)
        h_groups.setdefault(hkey, []).append((row["n_lambda"], err))
        pkey = (method, row["domain"], row["k"], row["h"], err_name)
        p_groups.setdefault(pkey, []).append((row["p"], err))

    labels = ((h_groups, "{4} vs N_lambda | method={0} domain={1} k={2!r} "
                         "p={3}"),
              (p_groups, "{4} vs p | method={0} domain={1} k={2!r} h={3!r}"),
              (k_groups, "gamma_n vs k | method={0} domain={1} p={2}"))
    for groups, label in labels:
        for key, pairs in sorted(groups.items()):
            if len({x for x, _ in pairs}) < 3:
                continue
            pairs.sort()
            line = _fit_line(pairs, label.format(*key))
            if line:
                lines.append(line)
    return lines


def run_config(cfg, echo=print):
    """Execute a built config: write its CSV, report slopes, return rows."""
    tasks = expand_runs(cfg)
    rows, failed = execute_runs(cfg, tasks)
    text = rows_to_csv_text(rows)
    out_path = cfg["out"]
    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write(text)
    echo(f"wrote {len(rows)} rows to {out_path}")
    for line in series_slopes(rows):
        echo(line)
    return rows, (3 if failed else 0)


# -- commands ---------------------------------------------------------------------


def _refuse(exc):
    print(f"config error: {exc}", file=sys.stderr)
    return 2


def _run_raw(raw_config):
    """Build and run the config `raw_config()` returns; exit 2 when the
    config is refused."""
    try:
        cfg = build_config(raw_config())
        _worker_count(cfg)
    except ConfigError as exc:
        return _refuse(exc)
    _, code = run_config(cfg)
    return code


def cmd_run(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: cannot read '{path}': {exc}", file=sys.stderr)
        return 2
    return _run_raw(lambda: parse_config_text(text))


def cmd_preset(name, out_dir):
    out = os.path.join(out_dir, f"{name}.csv")
    return _run_raw(lambda: {"preset": name, "out": out})


def cmd_list_presets():
    width = max(len(name) for name in PRESETS)
    for name in PRESETS:
        runtime, desc = PRESET_INFO[name]
        print(f"{name:<{width}}  [{runtime:<7}]  {desc}")
    return 0


def _dump_mesh(domain_text, h_text, grade):
    """The mesh of the polygon that the domain's default problem is posed
    on, as `triangulate` builds it at h, graded when asked."""
    name = _KEY_PARSERS["domain"]("domain", domain_text)
    domain = _PROBLEMS[name, _exacts(name)[0]](1.0).domain
    h = _parse_float("h", h_text)
    _check_mesh_sizes([h])
    mesh = meshing.triangulate(domain, h)
    if grade:
        try:
            sigma_text, layers_text = grade.split(",")
        except ValueError:
            raise ConfigError("grade", "expected 'sigma,layers'")
        sigma = _parse_float("grade", sigma_text)
        layers = _parse_int("grade", layers_text)
        corner = 0.0 if domain.dim == 1 else (0.0, 0.0)
        try:
            mesh = meshing.geometric_refine(mesh, [corner], sigma, layers)
        except ValueError as exc:
            raise ConfigError("grade", str(exc))
    return mesh


def cmd_mesh_dump(domain_text, h_text, grade):
    try:
        mesh = _dump_mesh(domain_text, h_text, grade)
    except ConfigError as exc:
        return _refuse(exc)
    sys.stdout.write(meshing.mesh_to_text(mesh))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="helmholtz",
        description="Experiment harness for Helmholtz discretization "
                    "studies at large wavenumber.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a key-value config file")
    p_run.add_argument("config")

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=".",
                          help="output directory for <name>.csv")

    sub.add_parser("list-presets", help="list available presets")

    p_mesh = sub.add_parser("mesh-dump",
                            help="triangulate a domain and print the mesh")
    p_mesh.add_argument("domain")
    p_mesh.add_argument("h")
    p_mesh.add_argument("--grade", default=None, metavar="SIGMA,LAYERS")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "preset":
        return cmd_preset(args.name, args.out)
    if args.command == "list-presets":
        return cmd_list_presets()
    if args.command == "mesh-dump":
        return cmd_mesh_dump(args.domain, args.h, args.grade)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
