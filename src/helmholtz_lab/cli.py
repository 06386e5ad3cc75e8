"""Config-driven experiment harness with presets and CSV reports.

Configs are flat ``key = value`` text files; list values are comma
separated ("k = 1,10,100").  Every run emits one CSV row per
(method, k, h, p) combination with a fixed column set, and fitted
convergence slopes per series are printed to standard output.  Rows that
differ only in k form a group that builds its mesh and space once
(`_groups`); groups are computed by a worker pool, but rows are always
written in sorted order, so a given config reproduces its CSV byte for
byte.

Tables hold what the harness knows: `_METHODS` each method's keys,
domains, sweeps, defaults, slopes and row runner, `_KEYS` each config
key's parser, range and default, `_RULES` the rules between keys, and
`_PROBLEMS` the problem builder of each (domain, exact solution) pair,
whose polygon `mesh-dump` meshes.
"""

import argparse
import collections
import concurrent.futures
import contextlib
import ctypes
import importlib
import itertools
import math
import os
import sys
import threading
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

# Wall time of `helmholtz preset <name>` including interpreter start-up
# (about 0.6 s of it), measured on one worker (the default) on a 2-CPU
# machine.
PRESET_INFO = {
    "fig1_1d_pollution": ("<1 s",
                          "1D impedance problem, h-FEM sweep over k and p;"
                          " the classic pollution picture"),
    "fig2_square": ("~1 s",
                    "plane wave on the unit square, h-FEM at p=1..3"),
    "fig3_lshape_pfem": ("<1 s",
                         "plane wave on the L-shape, p-FEM on a mesh graded"
                         " into the reentrant corner"),
    "lshape_singular": ("<1 s",
                        "corner-singular Bessel solution on the L-shape,"
                        " p-FEM on a quasi-uniform mesh"),
    "uwvf_square": ("<1 s",
                    "plane-wave DG with UWVF fluxes on the unit square"),
    "ls_square": ("<1 s",
                  "plane-wave least squares on the unit square"),
    "infsup_1d": ("<1 s",
                  "discrete inf-sup constant of the 1D model vs k at fixed"
                  " kh/p"),
    "approx_trefftz": ("<1 s",
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


class _Shared:
    """What the rows of one group of tasks share (see `_groups`): the
    value of the first `get(build)`, kept until the group ends.  When
    that build raised, `get` raises the same error for every later row."""

    def __init__(self):
        self._built = None

    def get(self, build):
        if self._built is None:
            try:
                self._built = build(), None
            except Exception as exc:
                self._built = None, exc
        value, error = self._built
        if error is not None:
            raise error
        return value


# Each runner returns the driver output of one task, given the `_Shared`
# of its group; `_run_task` copies its report into the task's row.


def _h1_space(cfg, domain, h, p):
    """The order-p H1 space on the mesh of `domain` at h, graded into the
    configured corners when sigma is set."""
    mesh = meshing.triangulate(domain, h)
    if cfg["sigma"] is not None:
        mesh = meshing.geometric_refine(mesh, cfg["corners"] or [(0.0, 0.0)],
                                        cfg["sigma"], cfg["layers"])
    return spaces.h1_space(mesh, p)


def _run_fem(cfg, task, shared):
    problem = _problem(cfg, task["k"])
    space = shared.get(
        lambda: _h1_space(cfg, problem.domain, _mesh_size(task), task["p"]))
    return methods.solve_fem(problem, space)


def _run_nodal(cfg, task, shared):
    return methods.solve_nodally_exact_1d(_problem(cfg, task["k"]),
                                          task["n_elements"])


def _trefftz_space(domain, h, k, basis):
    mesh = meshing.triangulate(domain, h)
    return spaces.trefftz_space(mesh, k, basis)


def _run_ls(cfg, task, shared):
    problem = _problem(cfg, task["k"])
    basis = spaces.PlaneWaveBasis(task["k"], task["p"])
    space = _trefftz_space(problem.domain, task["h"], task["k"], basis)
    return methods.solve_least_squares(
        problem, space, w1=cfg["w1"], w2=cfg["w2"],
        svd_cutoff=cfg["svd_cutoff"])


def _run_uwvf(cfg, task, shared):
    problem = _problem(cfg, task["k"])
    basis = spaces.PlaneWaveBasis(task["k"], task["p"])
    space = _trefftz_space(problem.domain, task["h"], task["k"], basis)
    return methods.solve_pwdg(problem, space,
                              flux=cfg["flux_params"] or cfg["flux"])


def _run_infsup(cfg, task, shared):
    k, p = task["k"], task["p"]
    problem = _problem(cfg, k)
    n = max(p, round(k / (cfg["khp"] * p)))
    space = _h1_space(cfg, problem.domain, 1.0 / n, p)
    return methods.infsup_constant(problem, space)


def _run_approx(cfg, task, shared):
    k = task["k"]
    angle = 0.3
    exact = methods.plane_wave_2d(
        k, direction=(math.cos(angle), math.sin(angle)))
    basis = cfg["kind"][task["kind"]](k, task["p"])
    space = _trefftz_space(meshing.unit_square(), cfg["h"][0], k, basis)
    return methods.best_approximation_1k(exact, space, cfg["svd_cutoff"])


# A slope series: a method's primary column against column `x`, printed
# as `name`, one fit per group of rows that agree on method, domain and
# the `by` columns.
_Series = collections.namedtuple("_Series", "x name by")
_ERROR_SERIES = (_Series("n_lambda", "N_lambda", ("k", "p")),
                 _Series("p", "p", ("k", "h")))

# Per method: the keys it reads on top of _COMMON_KEYS, the domains it
# runs on (a single one is the default), the config lists whose product
# gives its rows, the column its slopes fit, its row runner and slope
# series, the swept keys that fix its space, and its values for keys
# the config leaves unset.  A list left unset (h on the interval,
# n_elements in 2D) is not swept; `kind`, the local bases of the
# approximation study, is no config key.  Rows that agree on the space
# keys share one space, so a method naming none builds a space per row:
# the wave-based spaces depend on k, and `infsup` derives its mesh from k.
_Method = collections.namedtuple(
    "_Method",
    "reads domains sweeps primary run series space_keys defaults",
    defaults=(_ERROR_SERIES, (), {}))

_METHODS = {
    "fem": _Method(
        reads={"p", "h", "n_elements", "sigma", "layers", "corners",
               "robin_sign"},
        domains=_DOMAINS, sweeps=("k", "p", "n_elements", "h"),
        primary="err_h1semi_rel", run=_run_fem,
        space_keys=("p", "n_elements", "h")),
    "nodal": _Method(
        reads={"h", "n_elements", "robin_sign"}, domains=("interval",),
        sweeps=("k", "p", "n_elements"), primary="err_h1semi_rel",
        run=_run_nodal, defaults={"p": [1]}),
    "ls": _Method(
        reads={"p", "h", "w1", "w2", "svd_cutoff"}, domains=("square",),
        sweeps=("k", "p", "h"), primary="err_l2_rel", run=_run_ls),
    "uwvf": _Method(
        reads={"p", "h", "flux", "alpha", "beta", "delta"},
        domains=("square",), sweeps=("k", "p", "h"), primary="err_dg",
        run=_run_uwvf),
    "infsup": _Method(
        reads={"p", "khp", "robin_sign"}, domains=("interval",),
        sweeps=("k", "p"), primary="gamma_n", run=_run_infsup,
        series=(_Series("k", "k", ("p",)),),
        defaults={"p": [1]}),
    "approx": _Method(
        reads={"p", "h", "svd_cutoff"}, domains=("square",),
        sweeps=("kind", "k", "p"), primary="err_1k_rel", run=_run_approx,
        defaults={"h": [0.35], "kind": {"pw": spaces.PlaneWaveBasis,
                                        "ghp": spaces.GhpBasis}}),
}

# The keys every method reads; a config giving a key neither these nor
# its method's reads name, by itself or through its preset, is refused
# rather than silently ignored.
_COMMON_KEYS = {"preset", "method", "domain", "exact", "k", "out", "threads",
                "timing"}

# The keys some method sweeps; a method that reads one of them without
# sweeping it takes a single value.
_LIST_KEYS = {key for spec in _METHODS.values() for key in spec.sweeps}


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


def _parse_list(parse):
    """A comma-separated list of `parse`'s values."""
    def parse_list(key, text):
        return [parse(key, t.strip()) for t in text.split(",") if t.strip()]
    return parse_list


def _positive(value):
    return value > 0


class _Key(collections.namedtuple("_Key", "parse ok message default",
                                  defaults=(None, None, None))):
    """A config key: its parser, the test `ok` of its range, which a list
    passes when it is not empty and `ok` holds for each value (a value
    out of range is refused with `message`), and the value the key takes
    when the config leaves it unset."""

    def check(self, key, value):
        values = value if isinstance(value, list) else [value]
        if self.ok is not None and not (values and all(map(self.ok, values))):
            raise ConfigError(key, self.message)
        return value

    def read(self, key, text):
        """The checked value of `text`."""
        return self.check(key, self.parse(key, text))


# The config keys, in the order build_config checks them.
_KEYS = {
    "preset": _Key(_parse_choice(tuple(PRESETS))),
    "method": _Key(_parse_choice(_METHODS)),
    "domain": _Key(_parse_choice(_DOMAINS)),
    "k": _Key(_parse_list(_parse_float), lambda k: k >= 1.0,
              "needs wavenumbers, each at least 1"),
    "exact": _Key(_parse_choice(_EXACT)),
    "p": _Key(_parse_list(_parse_int), _positive,
              "needs orders, each positive"),
    # checked before an interval run turns h into 1/h elements
    "h": _Key(_parse_list(_parse_float),
              lambda h: h > 0 and 1.0 / h < math.inf,
              "needs mesh sizes, each positive with a finite 1/h"),
    "n_elements": _Key(_parse_list(_parse_int), _positive,
                       "needs element counts, each positive"),
    "sigma": _Key(_parse_float, lambda s: 0.0 < s < 1.0,
                  "grading factor must be in (0, 1)"),
    "layers": _Key(_parse_int, _positive, "need at least one layer"),
    "corners": _Key(_parse_corners),
    "robin_sign": _Key(_parse_float, lambda s: s in (1.0, -1.0),
                       "must be +1 or -1"),
    "flux": _Key(_parse_choice(tuple(assembly.FLUX_PRESETS)),
                 default="uwvf"),
    "alpha": _Key(_parse_float, _positive, "flux parameter must be positive"),
    "beta": _Key(_parse_float, _positive, "flux parameter must be positive"),
    "delta": _Key(_parse_float, lambda d: 0.0 < d < 1.0,
                  "flux parameter must lie in (0, 1)"),
    "w1": _Key(_parse_float, _positive, "must be positive"),
    "w2": _Key(_parse_float, _positive, "must be positive"),
    "svd_cutoff": _Key(_parse_float, _positive, "must be positive", 1e-12),
    "khp": _Key(_parse_float, _positive, "resolution ratio must be positive",
                0.25),
    "out": _Key(_parse_str, default="results.csv"),
    "threads": _Key(_parse_int, _positive, "worker count must be positive",
                    1),
    "timing": _Key(_parse_bool, default=False),
}


def parse_config_text(text):
    """Parse flat key-value config text into a dict of raw strings; a
    key set on two lines is refused."""
    raw, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(body.split()[0],
                              f"line {lineno} is not 'key = value'")
        key, value = body.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(key, "unknown config key")
        if key in set_on:
            raise ConfigError(key, f"set on line {set_on[key]} and again "
                                   f"on line {lineno}")
        raw[key], set_on[key] = value.strip(), lineno
    return raw


def build_config(raw):
    """Expand preset defaults, parse values, cross-validate; returns a dict.

    Keys are checked in the order of `_KEYS`, each by its rule in
    `_RULES` relating it to other keys and then by its own range, so the
    key a config is refused for is the first one that does not fit."""
    merged = {}
    preset = raw.get("preset")
    if preset is not None:
        preset = _KEYS["preset"].read("preset", preset)
        merged.update(PRESETS[preset])
    merged.update(raw)

    cfg = {key: entry.default for key, entry in _KEYS.items()}
    for key, value in merged.items():
        if key not in _KEYS:
            raise ConfigError(key, "unknown config key")
        cfg[key] = _KEYS[key].parse(key, value)

    method = cfg["method"]
    if method is None:
        raise ConfigError("method", "required (or give a preset)")
    spec = _METHODS[method]
    for key in merged:
        if key not in _COMMON_KEYS | spec.reads:
            origin = "" if key in raw else f" (set by preset '{preset}')"
            raise ConfigError(key, f"method '{method}' never reads it{origin}")
    for key, value in spec.defaults.items():
        if cfg.get(key) is None:
            cfg[key] = value
    if cfg["domain"] is None:
        if len(spec.domains) > 1:
            raise ConfigError("domain", f"required for method '{method}'")
        cfg["domain"] = spec.domains[0]
    if cfg["domain"] not in spec.domains:
        raise ConfigError("domain", f"method '{method}' runs on the "
                                    f"{' or '.join(spec.domains)}")

    # runs sweep element counts on the interval and mesh sizes elsewhere
    unswept = "h" if cfg["domain"] == "interval" else "n_elements"
    for key, entry in _KEYS.items():
        if key in _RULES:
            _RULES[key](cfg, method)
        if cfg[key] is not None:
            entry.check(key, cfg[key])
        elif key in spec.sweeps and key != unswept:
            raise ConfigError(key, f"method '{method}' sweeps it; give a "
                                   f"list")
    cfg["flux_params"] = None if cfg["alpha"] is None else assembly.FluxParams(
        alpha=cfg["alpha"], beta=cfg["beta"], delta=cfg["delta"])
    return cfg


# -- rules between keys --------------------------------------------------------
# Each takes the config being built and its method; it refuses keys that
# do not fit together, or fills keys from others.


def _exact_of_domain(cfg, method):
    exacts = _exacts(cfg["domain"])
    if cfg["exact"] is None:
        cfg["exact"] = exacts[0]
    if cfg["exact"] not in exacts:
        raise ConfigError("exact", f"{cfg['domain']} runs use "
                                   f"{' or '.join(exacts)}")


def _one_mesh_list(cfg, method):
    if cfg["h"] and cfg["n_elements"]:
        raise ConfigError("h", "give either h or n_elements, not both")
    if cfg["n_elements"] is not None and cfg["domain"] != "interval":
        raise ConfigError("n_elements", "element counts are for interval runs")


def _mesh_lists(cfg, method):
    # an interval run sweeps element counts, 1/h of them when given h
    if cfg["domain"] == "interval" and cfg["n_elements"] is None and cfg["h"]:
        cfg["n_elements"] = [max(1, round(1.0 / h)) for h in cfg["h"]]
        cfg["h"] = None
    # a list the method reads but does not sweep holds one value
    spec = _METHODS[method]
    for key in sorted(spec.reads & _LIST_KEYS - set(spec.sweeps)):
        if cfg[key] is not None and len(cfg[key]) > 1:
            raise ConfigError(key, f"method '{method}' reads a single value")


def _grading(cfg, method):
    if (cfg["sigma"] is None) != (cfg["layers"] is None):
        raise ConfigError("sigma", "grading needs both sigma and layers")
    if cfg["corners"] is not None and cfg["sigma"] is None:
        raise ConfigError("corners", "corners are read only for grading, "
                                     "with sigma and layers")
    if cfg["sigma"] is not None and cfg["domain"] == "interval":
        raise ConfigError("sigma", "grading applies to 2D fem runs")


def _flux_overrides(cfg, method):
    overrides = [cfg["alpha"], cfg["beta"], cfg["delta"]]
    if None in overrides and overrides != [None] * 3:
        raise ConfigError("alpha", "flux overrides need alpha, beta and delta")


# The rule that build_config runs under a key, before its range check.
_RULES = {
    "exact": _exact_of_domain,
    "h": _one_mesh_list,
    "n_elements": _mesh_lists,
    "sigma": _grading,
    "alpha": _flux_overrides,
}


def _worker_count(cfg):
    """HELMHOLTZ_THREADS when it is set, else the config's `threads`."""
    env = os.environ.get("HELMHOLTZ_THREADS")
    if not env:
        return cfg["threads"]
    try:
        return _KEYS["threads"].read("threads", env)
    except ConfigError:
        raise ConfigError("threads", f"HELMHOLTZ_THREADS must be a positive "
                                     f"integer, got '{env}'") from None


# -- run expansion and execution -------------------------------------------------


def expand_runs(cfg):
    """Cartesian sweep of the config: one task dict per CSV row."""
    method = cfg["method"]
    axes = [key for key in _METHODS[method].sweeps if cfg[key] is not None]
    return [dict(zip(axes, values), method=method)
            for values in itertools.product(*(cfg[key] for key in axes))]


def _groups(cfg, tasks):
    """The tasks in groups that agree on every key fixing their method's
    space (`_Method.space_keys`), each group in task order and the groups
    in order of their first task; with no such keys every task is a group
    of its own."""
    keys = _METHODS[cfg["method"]].space_keys
    if not keys:
        return [[task] for task in tasks]
    groups = {}
    for task in tasks:
        groups.setdefault(tuple(task.get(key) for key in keys),
                          []).append(task)
    return list(groups.values())


def _run_group(cfg, tasks):
    """The rows of one group of tasks, in order, run on one `_Shared`
    that the group drops when it ends."""
    shared = _Shared()
    return [_run_task(cfg, task, shared) for task in tasks]


def _run_task(cfg, task, shared):
    """Run one task into its CSV row; an exception flags the row."""
    row = {name: None for name in COLUMNS}
    # each local basis of the approximation study writes rows of its own
    row["method"] = (f"{task['method']}_{task['kind']}" if "kind" in task
                     else task["method"])
    row["domain"] = cfg["domain"]
    row["k"] = float(task["k"])
    row["p"] = task.get("p")
    row["h"] = _mesh_size(task)
    # the grading of a graded fem run; None for every other run
    row["sigma"] = cfg["sigma"]
    row["L"] = cfg["layers"]
    row["error"] = ""
    started = time.perf_counter()
    try:
        with _one_blas_thread():
            out = _METHODS[task["method"]].run(cfg, task, shared)
        _report_into_row(row, out)
    except Exception as exc:
        row["error"] = _sanitize(f"{type(exc).__name__}: {exc}")
        return row
    if cfg["timing"]:
        row["wall_ms"] = (time.perf_counter() - started) * 1e3
    return row


def _mesh_size(task):
    """The task's mesh size, 1/n_elements on the interval."""
    if "n_elements" in task:
        return 1.0 / task["n_elements"]
    return task.get("h")


def _sanitize(text):
    return str(text).replace(",", ";").replace("\n", " ").strip()


def _sort_key(row):
    return (
        row["method"], row["domain"], row["k"],
        row["p"] if row["p"] is not None else -1,
        -(row["h"] if row["h"] is not None else 0.0),
        row["dofs"] if row["dofs"] is not None else -1,
    )


# The OpenBLAS builds that numpy and scipy bundle: an extension module
# that links each, and the name of its thread-count getter and setter.
_BLAS_LIBRARIES = (
    ("numpy._core._multiarray_umath", "scipy_openblas_{}_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_{}_num_threads"),
)


def _blas_thread_controls():
    """The (getter, setter) pairs of the `_BLAS_LIBRARIES` found, and the
    modules of those whose library or symbols are not found."""
    found, missing = [], []
    for module, symbol in _BLAS_LIBRARIES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            found.append(tuple(getattr(lib, symbol.format(verb))
                               for verb in ("get", "set")))
        except (ImportError, OSError, AttributeError):
            missing.append(module)
    return found, missing


# The pins open now, and the thread counts to restore when none is.
_blas_lock = threading.Lock()
_blas_pins = {"open": 0, "restore": []}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every BLAS library at one thread; the thread
    counts are restored when the last of the pins open at once ends.

    OpenBLAS splits a product over its threads, one per CPU by default,
    and the roundoff depends on the split, so without the pin the bits
    of a CSV would depend on the host's core count.  `run_config` pins
    its run and `_run_task` each row, so a row run on its own gets the
    bits of the same row in a run.  A library that is not found stays
    unpinned, with one line on stderr.
    """
    with _blas_lock:
        if not _blas_pins["open"]:
            found, missing = _blas_thread_controls()
            if missing:
                print(f"note: BLAS thread count not pinned for "
                      f"{', '.join(missing)}; the CSV may depend on it",
                      file=sys.stderr)
            _blas_pins["restore"] = [(put, get()) for get, put in found]
            for put, _ in _blas_pins["restore"]:
                put(1)
        _blas_pins["open"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins["open"] -= 1
            if not _blas_pins["open"]:
                for put, count in _blas_pins["restore"]:
                    put(count)


def execute_runs(cfg, tasks):
    """Run all tasks, a group of tasks sharing a space (`_groups`) per job
    of a worker pool; returns (sorted rows, failure flag)."""
    groups = _groups(cfg, tasks)
    workers = _worker_count(cfg)
    if workers == 1 or len(groups) <= 1:
        done = [_run_group(cfg, group) for group in groups]
    else:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            done = list(pool.map(lambda group: _run_group(cfg, group),
                                 groups))
    rows = [row for group_rows in done for row in group_rows]
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


def series_slopes(rows, spec):
    """Fitted log-log slopes of the primary column of the rows' method
    (`spec`, its `_Method`) along each of its series, one per group with
    at least 3 distinct x."""
    lines = []
    y = spec.primary
    for series in spec.series:
        groups = {}
        for row in rows:
            if row[y] is not None and row[y] > 0 and row[series.x]:
                key = tuple(row[col] for col in ("method", "domain")
                            + series.by)
                groups.setdefault(key, []).append((row[series.x], row[y]))
        for key, pairs in sorted(groups.items()):
            if len({x for x, _ in pairs}) < 3:
                continue
            try:
                slope, _, r2 = analysis.fit_rate(sorted(pairs))
            except ValueError:
                continue
            method, domain, *values = key
            fixed = " ".join(f"{col}={value!r}"
                             for col, value in zip(series.by, values))
            lines.append(f"slope {y} vs {series.name} | method={method} "
                         f"domain={domain} {fixed}: {slope:+.3f} "
                         f"(r2={r2:.4f}, {len(pairs)} pts)")
    return lines


def run_config(cfg, echo=print):
    """Execute a built config: write its CSV, report slopes, return rows."""
    tasks = expand_runs(cfg)
    with _one_blas_thread():
        rows, failed = execute_runs(cfg, tasks)
    text = rows_to_csv_text(rows)
    out_path = cfg["out"]
    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write(text)
    echo(f"wrote {len(rows)} rows to {out_path}")
    for line in series_slopes(rows, _METHODS[cfg["method"]]):
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
    name = _KEYS["domain"].read("domain", domain_text)
    domain = _PROBLEMS[name, _exacts(name)[0]](1.0).domain
    h = _KEYS["h"].check("h", [_parse_float("h", h_text)])[0]
    mesh = meshing.triangulate(domain, h)
    if grade:
        try:
            sigma_text, layers_text = grade.split(",")
        except ValueError:
            raise ConfigError("grade", "expected 'sigma,layers'")
        sigma = _KEYS["sigma"].read("grade", sigma_text)
        layers = _KEYS["layers"].read("grade", layers_text)
        corner = 0.0 if domain.dim == 1 else (0.0, 0.0)
        mesh = meshing.geometric_refine(mesh, [corner], sigma, layers)
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
