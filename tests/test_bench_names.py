"""The benchmark's per-layer metrics name real code.

``bench/spans.py`` reduces its recorded spans by name (``ix.calls``,
``ix.total``, ``ix.median``).  A span of a function that was renamed or
removed is never recorded, so its metric reads 0 without any error; this
test reads the module's source, without importing it, and resolves every
such name against the package.
"""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def span_names() -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(SPANS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("calls", "total", "median")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "ix"):
            names.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
    return names


def test_every_span_name_resolves():
    names = span_names()
    assert {"sim.fleet_step", "sim.meanfield_step", "design.solve_design_ode"} <= names
    missing = []
    for name in sorted(names):
        layer, *path = name.split(".")
        obj = importlib.import_module(f"ddispatch.{layer}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []
