"""Every name a package module imports is used there, every parameter
of a function is read in its body, every parameter with a default is
set by some call in the package, and no run loads more of scipy than
its sine transform, which loads with the first transform: a run that
makes none loads no scipy at all. A run hashes its config without
OpenSSL.

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

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

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


def unread_parameters(tree):
    """(function name, parameter) of every parameter that its ``def`` never
    reads; a read in a nested function or lambda counts. Lambdas are not
    checked: constant boundary data keep the (x, y, t) signature."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((node.name, p) for p in params if p not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a knob that nothing reads any more is dead code with a public name
    unread = list(unread_parameters(ast.parse(path.read_text())))
    assert not unread, f"{path.name} has unread parameters {unread}"


def test_unread_parameter_check_sees_defs_not_lambdas():
    tree = ast.parse(
        "def f(a, b, *c, d, **e):\n"
        "    def g():\n"
        "        return a + sum(c)\n"
        "    return g() + (lambda x, y, t: 0.0)(1, 2, 3)\n"
    )
    assert list(unread_parameters(tree)) == [("f", "b"), ("f", "d"), ("f", "e")]


def unset_defaults(trees, exempt=()):
    """(module, function, parameter) of every parameter with a default
    that no call in ``trees``, {module: tree}, sets; the (module,
    function) pairs in ``exempt`` are not checked.

    A call names its callee by a plain name or by an attribute's last
    part and sets the parameters of every ``def`` of that name that its
    positional arguments reach, after self in a method, or that it passes
    by keyword. A function's calls to itself do not count. A call whose
    callee has no name, such as ``PROBLEMS[name](T=...)``, sets every
    parameter that one of its keywords names.
    """
    defs, calls, anywhere = [], {}, set()

    def visit(node, module, caller, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args][in_class:]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                defs.append((module, child.name, positional, defaulted))
                visit(child, module, child.name, False)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                keywords = {k.arg for k in child.keywords if k.arg is not None}
                if name is None:
                    anywhere.update(keywords)
                elif name != caller:
                    reach = next((i for i, arg in enumerate(child.args)
                                  if isinstance(arg, ast.Starred)), len(child.args))
                    calls.setdefault(name, []).append((reach, keywords))
            visit(child, module, caller, isinstance(child, ast.ClassDef))

    for module, tree in trees.items():
        visit(tree, module, None, False)
    for module, name, positional, defaulted in defs:
        if (module, name) in exempt:
            continue
        set_here = set(anywhere)
        for reach, keywords in calls.get(name, ()):
            set_here.update(positional[:reach], keywords)
        yield from ((module, name, p) for p in defaulted if p not in set_here)


def console_entry_points():
    """(module, function) of each console script in pyproject.toml, which
    the command line calls with its defaults."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    targets = (target.split(":") for target in scripts.values())
    return {(module.rsplit(".", 1)[-1], function) for module, function in targets}


@pytest.mark.skipif(tomllib is None, reason="reading pyproject.toml needs tomllib")
def test_every_defaulted_parameter_is_set_by_a_package_call():
    # a default that no caller overrides is a knob that only tests turn
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    unset = list(unset_defaults(trees, console_entry_points()))
    assert not unset, f"parameters that no package call sets: {unset}"


def test_unset_default_check_counts_calls_but_not_self_calls():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return f(a, 5, c=6, d=7)\n"
        "def g(x=0, y=0, z=0):\n"
        "    return f(1, 2) + REGISTRY['f'](d=1) + g(y=1)\n"
        "class C:\n"
        "    def m(self, u=0, v=0):\n"
        "        return g(*ARGS, z=1)\n"
        "def main(argv=None):\n"
        "    return C().m(1)\n"
    )
    assert list(unset_defaults({"mod": tree}, {("mod", "main")})) == [
        ("mod", "f", "c"), ("mod", "f", "e"), ("mod", "g", "x"),
        ("mod", "g", "y"), ("mod", "m", "v")]


def import_paths(node):
    """Dotted path of each name an import statement binds: 'scipy.fft.dstn'
    for ``from scipy.fft import dstn``, 'scipy.fft' for ``import scipy.fft``;
    none for any other node."""
    if isinstance(node, ast.ImportFrom) and node.module:
        return [f"{node.module}.{a.name}" for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return []


def scoped_imports(node, scope="<module>"):
    """(qualified name of the innermost def or class around it, dotted
    path) of every import under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield from ((inner, path) for path in import_paths(child))
        yield from scoped_imports(child, inner)


def test_only_spatial_imports_the_sine_transform():
    # to_sine / from_sine in spatial.py own the DST-I convention, and
    # scipy.fft is the only part of scipy the package loads, inside them
    # so that a run which transforms nothing does not load it: an import
    # at module level, or anywhere else, fails here by name
    scipy_imports = set()
    for p in sorted(PACKAGE.glob("*.py")):
        scipy_imports.update(
            (p.name, scope, m)
            for scope, m in scoped_imports(ast.parse(p.read_text()))
            if m == "scipy" or m.startswith("scipy."))
    assert scipy_imports
    assert all(name == "spatial.py" and scope in ("to_sine", "from_sine")
               and m.startswith("scipy.fft.")
               for name, scope, m in scipy_imports), sorted(scipy_imports)


@pytest.mark.parametrize("argv, starter", [
    (None, None),
    (["--nx", "48", "-M", "6"], "etdrk4"),
    (["--nx", "8", "-M", "6"], "dp54"),
], ids=["import", "etdrk4", "dp54"])
def test_no_run_loads_scipy_integrate_optimize_sparse_or_linalg(tmp_path, argv,
                                                               starter):
    # only the ETDRK4 starter transforms: the package's import and a
    # DP5(4) run, which solves with CG, load no scipy module at all
    out = tmp_path / "out"
    script = "import sys\nimport fisherkpp, fisherkpp.cli\n"
    if argv is not None:
        script += (
            "from fisherkpp.cli import main\n"
            f"assert main(['run', '--example', 'manufactured', *{argv!r}, "
            f"'-o', {str(out)!r}]) == 0\n"
        )
    script += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    if starter == "etdrk4":
        assert "scipy.fft" in loaded
        assert not {"scipy.integrate", "scipy.optimize", "scipy.sparse",
                    "scipy.linalg"} & set(loaded)
    else:
        assert loaded == []
    if starter is not None:
        assert f"# starter={starter} " in (out / "report.csv").read_text()


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="no builtin sha256 module in this interpreter")
def test_run_loads_no_openssl(tmp_path):
    # the config hash comes from CPython's builtin sha256, not hashlib
    script = (
        "import sys\n"
        "from fisherkpp.cli import main\n"
        "assert main(['run', '--example', 'wave', '--nx', '8', '-M', '4', "
        f"'-o', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
