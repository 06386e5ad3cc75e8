"""Span tracing of helmholtz_lab from outside the package.

`Tracer.install()` replaces each public function of the numerical modules
with a wrapper, at every module attribute through which callers look it
up (a function imported by name, such as `bessel_j` in `methods` and
`spaces`, is bound in several modules).  Each call records a span
(name, group, start, end, parent) in memory; `uninstall()` restores the
original functions.  Class methods are not wrapped, so their time lands
in the self time of the calling function's span.  The `cli` module is not
wrapped either: its share is the traced wall time minus all top-level
spans.

Metric groups: the functions named in `GROUPS` get their own group; any
other public function of `meshing`, `spaces` or `methods` belongs to the
module's group, and of `assembly`, `analysis` or `numerics` to
`<module>.other`.  Work the tracer does for its own counters is recorded
in the `trace` group, so that it is not charged to a layer.
"""

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

TRACED_MODULES = ("meshing", "spaces", "assembly", "analysis", "numerics",
                  "methods")
PACKAGE_MODULES = TRACED_MODULES + ("cli",)

GROUPS = {
    "assembly.solve": "assembly.solve",
    "assembly.assemble_galerkin": "assembly.galerkin",
    "assembly.assemble_least_squares": "assembly.skeleton",
    "assembly.assemble_pwdg": "assembly.skeleton",
    "assembly.assemble_gram_1k": "assembly.gram",
    "assembly.project_rhs_1k": "assembly.gram",
    "assembly.infsup_probe": "assembly.infsup",
    "analysis.relative_errors": "analysis.volume",
    "analysis.nodal_max_error": "analysis.volume",
    "analysis.dg_error_norm": "analysis.skeleton",
    "analysis.j_functional": "analysis.skeleton",
    "numerics.bessel_j": "numerics.bessel",
}
WHOLE_MODULE_GROUPS = ("meshing", "spaces", "methods")

# Every group a traced pass reports a self time for, in report order.
ALL_GROUPS = (
    "meshing", "spaces", "assembly.galerkin", "assembly.solve",
    "assembly.skeleton", "assembly.gram", "assembly.infsup",
    "assembly.other", "analysis.volume", "analysis.skeleton",
    "analysis.other", "numerics.bessel", "numerics.other", "methods",
    "trace",
)

COUNTERS = ("meshing.elements", "assembly.ndof", "assembly.nnz",
            "assembly.solve.calls", "assembly.solve.lu_fill_nnz",
            "numerics.bessel.calls", "numerics.bessel.points")

_ASSEMBLERS = ("assembly.assemble_galerkin", "assembly.assemble_least_squares",
               "assembly.assemble_pwdg", "assembly.assemble_gram_1k")
_MESH_BUILDERS = ("meshing.triangulate", "meshing.geometric_refine")


def group_of(name):
    if name in GROUPS:
        return GROUPS[name]
    module = name.split(".", 1)[0]
    return module if module in WHOLE_MODULE_GROUPS else f"{module}.other"


def _matrix_size(mat):
    """(rows, stored entries); a dense matrix stores n * n entries."""
    if hasattr(mat, "nnz"):
        return mat.shape[0], int(mat.nnz)
    mat = np.asarray(mat)
    return mat.shape[0], int(mat.size)


class Tracer:
    """Records nested call spans and counters while installed."""

    def __init__(self):
        self.spans = []  # [name, group, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _open(self, name, group):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, group, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][3] = time.perf_counter()

    def _wrap(self, fn, name):
        group = group_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, group)
            try:
                result = fn(*args, **kwargs)
                self._count(name, args, kwargs, result)
            finally:
                self._close(index)
            return result

        return traced

    def _count(self, name, args, kwargs, result):
        if name in _ASSEMBLERS:
            mat = result.A if hasattr(result, "A") else result
            rows, stored = _matrix_size(mat)
            self.counts["assembly.ndof"] += rows
            self.counts["assembly.nnz"] += stored
        elif name == "assembly.solve":
            self.counts["assembly.solve.calls"] += 1
        elif name == "numerics.bessel_j":
            self.counts["numerics.bessel.calls"] += 1
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.counts["numerics.bessel.points"] += int(np.size(x))
        elif name in _MESH_BUILDERS:
            self.counts["meshing.elements"] += int(result.n_elements)

    def _wrap_splu(self, splu):
        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            index = self._open("trace.lu_fill", "trace")
            try:
                self.counts["assembly.solve.lu_fill_nnz"] += (
                    lu.L.nnz + lu.U.nnz)
            finally:
                self._close(index)
            return lu

        return traced_splu

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the traced modules in place."""
        import scipy.sparse.linalg

        modules = {name: importlib.import_module(f"helmholtz_lab.{name}")
                   for name in PACKAGE_MODULES}
        wrappers = {}
        for mod_name in TRACED_MODULES:
            module = modules[mod_name]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{mod_name}.{attr}")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        self._patch(scipy.sparse.linalg, "splu",
                    self._wrap_splu(scipy.sparse.linalg.splu))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def group_self_times(self):
        """Self time per group: span duration minus its child spans."""
        self_time = Counter()
        child_time = Counter()
        for name, group, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, group, start, end, parent) in enumerate(self.spans):
            self_time[group] += (end - start) - child_time[index]
        return {group: self_time.get(group, 0.0) for group in ALL_GROUPS}

    def top_level_time(self):
        return sum(end - start for _, _, start, end, parent in self.spans
                   if parent < 0)

    def write_spans(self, path):
        """Write the spans as CSV: index,name,group,start,end,parent."""
        with open(path, "w") as fh:
            fh.write("index,name,group,start_s,end_s,parent\n")
            for index, (name, group, start, end, parent) in enumerate(
                    self.spans):
                fh.write(f"{index},{name},{group},{start!r},{end!r},"
                         f"{parent}\n")
