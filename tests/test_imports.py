"""Every name a package module imports is used there, and a run loads
the DP5(4) stack only when its start needs it.

The one exception is a name that ``perfbench/tracer.py`` wraps by its
module-level binding (a target of ``LAYERS``): the traced benchmark
needs it bound even where the module no longer calls it.
"""

import ast
import importlib.util
import os
import subprocess
import sys
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


def imported_paths(tree):
    """Dotted path of every import: 'scipy.fft.dstn' for
    ``from scipy.fft import dstn``, 'scipy.fft' for ``from scipy import fft``."""
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            paths.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            paths.update(a.name for a in node.names)
    return paths


def test_only_spatial_imports_the_sine_transform():
    # to_sine / from_sine in spatial.py own the DST-I convention
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if any(m == "scipy.fft" or m.startswith("scipy.fft.")
                        for m in imported_paths(ast.parse(p.read_text())))]
    assert importers == ["spatial.py"]


@pytest.mark.parametrize("argv, starter, loaded", [
    (["--nx", "48", "-M", "6"], "etdrk4", False),
    (["--nx", "8", "-M", "6"], "dp54", True),
])
def test_dp5_stack_loads_only_for_a_non_stiff_start(tmp_path, argv, starter,
                                                    loaded):
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "from fisherkpp.cli import main\n"
        f"assert main(['run', '--example', 'manufactured', *{argv!r}, "
        f"'-o', {str(out)!r}]) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == str(loaded)
    assert f"# starter={starter} " in (out / "report.csv").read_text()
