"""Consistency of the benchmark's span tracer with the package."""

import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
