"""Consistency of the benchmark's span tracer with the package, and the
module boundaries of the package."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "helmholtz_lab"


def tracer_names():
    """The module-level names of perfbench/tracer.py, from its source,
    executed in a plain namespace so that nothing is written beside it."""
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def is_wrapped_function(name, traced_modules):
    """True when the tracer wraps `module.attr`: a public function defined
    in a traced module of the package."""
    module_name, attr = name.split(".")
    if module_name not in traced_modules or attr.startswith("_"):
        return False
    module = importlib.import_module(f"helmholtz_lab.{module_name}")
    obj = getattr(module, attr, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_grouped_and_counted_names_are_public_functions():
    # A renamed or removed function would leave its old name in these
    # tables, and the tracer would book the new one under
    # `<module>.other` without a word.
    tracer = tracer_names()
    names = sorted(set(tracer["GROUPS"]) | set(tracer["_ASSEMBLERS"]))
    assert "assembly.assemble_gram_1k" in names
    stale = [name for name in names
             if not is_wrapped_function(name, tracer["TRACED_MODULES"])]
    assert not stale, f"tracer names without a public function: {stale}"


def package_trees():
    """Module name -> parsed source of every module of the package."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def test_analysis_imports_nothing_from_assembly():
    # The skeleton norms and the J functional take their edge batches and
    # traces from the space, not from assembly's internals.
    imported = set()
    for node in ast.walk(package_trees()["analysis"]):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "assembly" for name in imported)


def test_numerics_imports_nothing_from_scipy_special():
    # The Bessel and Gamma kernels are written out in numerics, and their
    # bitwise contract rests on that: a scipy.special routine would bring
    # bits that move with the SciPy build.
    names = set()
    for node in ast.walk(package_trees()["numerics"]):
        if isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(f"{getattr(node.value, 'id', '')}.{node.attr}")
    assert not [name for name in names
                if (name + ".").startswith("scipy.special.")]


def test_only_spaces_reads_the_batch_entry_bound():
    # The batch sizes of element and edge loops are decided in one module.
    readers = sorted(
        module for module, tree in package_trees().items()
        if any(getattr(node, "id", getattr(node, "attr", None))
               == "_BATCH_ENTRIES" for node in ast.walk(tree)))
    assert readers == ["spaces"]


def reading_scopes(name):
    """(module, qualified name of the enclosing function or class, None
    at module level) of every read of `name` in the package."""
    scopes = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (getattr(child, "id", getattr(child, "attr", None)) == name
                  and isinstance(getattr(child, "ctx", None), ast.Load)):
                scopes.add((module, scope))
            visit(child, module, inner)

    for module, tree in package_trees().items():
        visit(tree, module, None)
    return sorted(scopes, key=str)


def test_only_element_batches_reads_the_batch_point_bound():
    # Every volume loop, the error pass included, takes its batches from
    # one method, so the batch size cannot fork per caller.
    assert reading_scopes("_BATCH_POINTS") == [
        ("spaces", "_Space.element_batches")]


def test_only_assembly_calls_splu():
    # Which ordering a sparse LU takes, and its fallback, are decided in
    # one place; a second caller would bypass the elimination order and
    # the residual check.
    callers = sorted(
        module for module, tree in package_trees().items()
        if any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "splu" for node in ast.walk(tree)))
    assert callers == ["assembly"]


def test_only_factor_calls_splu():
    # Every sparse LU, the symmetric-mode attempt and the COLAMD
    # factorizations alike, takes its options from one function.
    callers = top_level_callers(package_trees()["assembly"], "splu")
    assert callers == ["_factor"]


def test_cli_compares_no_method_name():
    # What depends on the method is a field of its `_METHODS` entry; a
    # comparison with a method's name would keep one of its facts
    # somewhere else.
    from helmholtz_lab import cli

    def constants(node):
        if isinstance(node, ast.Constant):
            return {node.value}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*map(constants, node.elts))
        return set()

    compared = []
    for node in ast.walk(package_trees()["cli"]):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            found = set(cli._METHODS) & set().union(*map(constants,
                                                          operands))
            if found:
                compared.append((node.lineno, sorted(found)))
    assert not compared, f"comparisons with a method name: {compared}"


def call_name(node):
    """The called name of a Call node: `f` of f(...) and of obj.f(...)."""
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def top_level_callers(tree, name):
    """The top-level functions of a module that call `name`."""
    return sorted(
        top.name for top in tree.body if isinstance(top, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and call_name(node) == name
                for node in ast.walk(top)))


def test_methods_builds_outputs_in_one_tail():
    # Every driver hands its result to one tail that fills the report and
    # bundles the output, so a report field is set in one place.
    tree = package_trees()["methods"]
    for name in ("SolveOutput", "ErrorReport"):
        assert top_level_callers(tree, name) == ["_output"], name


def test_cli_copies_reports_into_rows_once():
    # The runners return their driver's output; only the task loop writes
    # it into the row.
    tree = package_trees()["cli"]
    assert top_level_callers(tree, "_report_into_row") == ["_run_task"]


def test_only_assembly_reads_the_default_boundary_condition():
    # Which condition a tag left out of a `bc` map gets, and which kinds a
    # map may name, are decided by `assembly.boundary_edges` alone.
    readers = sorted(
        module for module, tree in package_trees().items()
        if any(isinstance(node, ast.Call) and call_name(node) == "get"
               and len(node.args) == 2
               and getattr(node.args[1], "value", None) == "robin"
               for node in ast.walk(tree)))
    assert readers == ["assembly"]


def test_only_the_strategies_build_solve_results():
    # `solve` dispatches; each of its two strategies states what it ran
    # in one complete result.
    callers = top_level_callers(package_trees()["assembly"], "SolveResult")
    assert callers == ["_sparse_lu", "_truncated"]


def test_only_spaces_references_flat():
    # The layout of callback data at batched points is read in one module
    # (`spaces._point_values`, `spaces._point_fields`).
    readers = sorted(
        module for module, tree in package_trees().items()
        if any(getattr(node, "id", getattr(node, "attr", None)) == "_flat"
               for node in ast.walk(tree)))
    assert readers == ["spaces"]


def test_blas_thread_symbols_are_found():
    # Both bundled OpenBLAS builds can be pinned; a missing one would
    # leave the CSVs depending on the host's core count.
    from helmholtz_lab import cli

    found, missing = cli._blas_thread_controls()
    assert missing == [] and len(found) == len(cli._BLAS_LIBRARIES) == 2
    assert all(get() >= 1 for get, _ in found)


def test_only_mesh_builds_the_skeleton():
    # One facet sort builds the skeleton of interval and triangle meshes
    # alike, so that both dimensions get the same refusals.
    def assigns_edge_elems(function):
        return any(isinstance(node, ast.Attribute)
                   and node.attr == "edge_elems"
                   and isinstance(node.ctx, ast.Store)
                   for node in ast.walk(function))

    assigners = sorted(
        node.name for node in ast.walk(package_trees()["meshing"])
        if isinstance(node, ast.FunctionDef) and assigns_edge_elems(node))
    assert assigners == ["_build_edges"]


def test_trefftz_field_evaluates_each_shape_once(monkeypatch):
    # The error pass evaluates a Trefftz space's local basis once per
    # distinct Jacobian of an element batch, not once per element: the
    # h = 1/8 square has two element shapes, and a batch holds at most
    # both.
    import numpy as np

    from helmholtz_lab.analysis import relative_errors
    from helmholtz_lab.meshing import triangulate, unit_square
    from helmholtz_lab.spaces import PlaneWaveBasis, trefftz_space

    k = 10.0
    mesh = triangulate(unit_square(), 0.125)
    space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=7))
    nq = len(space.error_rule(k).weights)
    jac = mesh.jacobians().reshape(-1, 4)
    shapes = [len(np.unique(jac[elems], axis=0))
              for elems in space.element_batches(nq)]
    assert max(shapes) <= 2

    points = []
    evaluate = PlaneWaveBasis.eval

    def counting(basis, y):
        points.append(np.prod(np.shape(y)[:-1]))
        return evaluate(basis, y)

    monkeypatch.setattr(PlaneWaveBasis, "eval", counting)
    d = np.array([0.6, 0.8])

    def exact(pts):
        u = np.exp(1j * k * (pts @ d))
        return u, 1j * k * u[:, None] * d

    relative_errors(space, np.ones(space.ndof, dtype=complex), exact, k)
    assert sum(points) == sum(shapes) * nq


def test_2d_shared_element_matrices_make_no_einsum(monkeypatch):
    # The Trefftz (1,k) projection and the PUM Galerkin matrix take their
    # local matrices from one batched GEMM each, not from an einsum.
    import numpy as np

    from helmholtz_lab import spaces
    from helmholtz_lab.meshing import triangulate, unit_square

    k = 10.0
    mesh = triangulate(unit_square(), 0.25)
    trefftz = spaces.trefftz_space(mesh, k, spaces.GhpBasis(k=k, p=3))
    pum = spaces.pum_space(mesh, k, spaces.PlaneWaveBasis(k=k, p=5))
    elems = np.arange(mesh.n_elements)
    batches = []
    for space in (trefftz, pum):
        rule = space.volume_rule(k)
        batches.append((space, rule, space.element_tables(elems, rule)))

    def refuse(*args, **kwargs):
        raise AssertionError("einsum on the 2D shared element path")

    monkeypatch.setattr(spaces.np, "einsum", refuse)
    for space, rule, tables in batches:
        stiff, mass = space.element_matrices(elems, rule, tables)
        assert stiff.shape == mass.shape == (len(elems),) + (space.nloc,) * 2


def test_only_sparse_lu_lowers_precision():
    # A single-precision factor is a fast path that `_sparse_lu` checks
    # by refinement and its residual; every other computation of the
    # package stays in double precision.
    single = {"complex64", "float32", "csingle", "single", "float16",
              "half"}

    def lowers(node):
        return any(getattr(sub, "id", getattr(sub, "attr", None)) in single
                   or (isinstance(sub, ast.Constant)
                       and isinstance(sub.value, str) and sub.value in single)
                   for sub in ast.walk(node))

    users = sorted(
        (module, getattr(top, "name", "<module>"))
        for module, tree in package_trees().items()
        for top in tree.body if lowers(top))
    assert users == [("assembly", "_refined")]
    assert top_level_callers(package_trees()["assembly"],
                             "_refined") == ["_sparse_lu"]
