"""The benchmark harness's self-test and correctness check, run as part
of the test suite.

``perfbench/tracer.py`` wraps package functions by their module-level
names, so renaming or dropping one of them breaks the traced benchmark;
its self-test catches that. The benchmark also checks every call's
final-time errors against ``perfbench/references.json``; the same check
runs here once per configuration. Files under ``perfbench/`` are only
read.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from fisherkpp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def load_run_module(monkeypatch):
    """perfbench/run.py, loaded from its file with its sibling
    ``workloads`` importable; neither stays in ``sys.modules``."""
    def load(name, path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    monkeypatch.setitem(sys.modules, "workloads",
                        load("workloads", PERFBENCH / "workloads.py"))
    return load("_perfbench_run", PERFBENCH / "run.py")


def test_every_benchmark_configuration_meets_its_references(tmp_path, monkeypatch):
    # the benchmark's own correctness check, once per configuration and
    # beta: a change that moves a reference error fails here first
    run = load_run_module(monkeypatch)
    checked = 0
    for name, spec in run.WORKLOADS.items():
        # any seed but 0 covers every beta in its first cycle
        for i, (argv, betas) in enumerate(run.first_cycle(name, 1)):
            art_dir = tmp_path / f"{name}-{i}"
            assert main([*argv, "-o", str(art_dir)]) == 0
            found, _ = run.read_artifacts(spec["command"], art_dir, betas)
            expected = run.expected_errors(name, betas)
            assert found.keys() == expected.keys()
            for key, ref in expected.items():
                assert run.within_tolerance(found[key], ref), (name, key, found[key], ref)
                checked += 1
    assert checked == 3 + 3 + 9
