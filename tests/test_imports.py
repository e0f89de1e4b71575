"""Every name a package module imports is used there.

The one exception is a name that ``perfbench/tracer.py`` wraps by its
module-level binding (a target of ``LAYERS``): the traced benchmark
needs it bound even where the module no longer calls it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fisherkpp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def tracer_bound_names():
    """{module name: names LAYERS wraps in it}, read from perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = {}
    for targets, _ in tracer.LAYERS.values():
        for module, attr in targets:
            bound.setdefault(module, set()).add(attr.split(".")[0])
    return bound


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_tracer_bound(path):
    tree = ast.parse(path.read_text())
    exempt = tracer_bound_names().get(f"fisherkpp.{path.stem}", set())
    unused = imported_names(tree) - used_names(tree) - exempt
    assert not unused, f"{path.name} imports unused names {sorted(unused)}"
