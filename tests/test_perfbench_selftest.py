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


def test_benchmark_command_lines_reproduce_their_artifacts(tmp_path, monkeypatch):
    # each workload's command line at beta = 2, run twice in one process:
    # every artifact repeats byte for byte, report.csv up to its timing column
    run = load_run_module(monkeypatch)
    for name, spec in run.WORKLOADS.items():
        beta_flag = "--beta" if spec["command"] == "run" else "--betas"
        argv = [spec["command"], *spec["args"], beta_flag, "2"]
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        for out in (first, second):
            assert main([*argv, "-o", str(out)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        if spec["command"] == "run":
            assert names == ["errors.csv", "field.csv", "report.csv"]
        else:
            assert names == ["temporal_beta2_gamma0.75.csv",
                             "temporal_beta2_gamma0.75_plot.csv"]
        for artifact in names:
            a, b = (first / artifact).read_bytes(), (second / artifact).read_bytes()
            if artifact == "report.csv":
                a, b = ([line.split(b",")[:4] for line in text.splitlines()]
                        for text in (a, b))
            assert a == b, (name, artifact)
