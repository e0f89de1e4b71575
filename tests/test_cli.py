import ast
import itertools
import math
import shlex
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fisherkpp import analysis, cli, stepper
from fisherkpp.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    parse_float,
)
from fisherkpp.coeffs import uniform_coeffs
from fisherkpp.linsolve import cg_solve
from fisherkpp.problems import ProblemSpec, example1
from fisherkpp.timegrid import graded_grid, time_grid


def write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_float_symbolic():
    assert parse_float("sqrt2") == math.sqrt(2.0)
    assert parse_float("pi") == math.pi
    assert parse_float("2.5e-1") == 0.25


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_parse_float_rejects_non_finite(text):
    with pytest.raises(ValueError, match="not a finite number"):
        parse_float(text)


@pytest.mark.parametrize("flag, value, key", [
    ("--gamma", "nan", "gamma"),
    ("--gamma", "inf", "gamma"),
    ("--t-final", "inf", "t_final"),
    ("--beta", "inf", "beta"),
    ("--beta", "nan", "beta"),
])
def test_run_rejects_non_finite_value(tmp_path, flag, value, key, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "-M", "4", "--nx", "8", flag, value,
                   "-o", str(out)) == 2
    assert f"config error: bad value for {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--betas", "2,inf", "betas"),
    ("--grids", "uniform,graded:nan", "grids"),
])
def test_convergence_rejects_non_finite_list_entry(tmp_path, flag, value,
                                                   key, capsys):
    out = tmp_path / "out"
    assert run_cli("convergence", "--nx", "8", "--sweep-m", "4,8", flag, value,
                   "-o", str(out)) == 2
    assert f"config error: bad value for {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("grid", "-M", "4", "-T", "inf"),
                                  ("coeffs", "--beta", "nan")])
def test_dump_commands_reject_non_finite_value(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    assert f"argument {argv[-2]}: invalid parse_float value: {argv[-1]!r}" \
        in capsys.readouterr().err


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config("run", write(tmp_path,
        "example = manufactured\nbeta = 2\nm = 40\nnx = 64\nny = 64\n"))
    assert cfg.gamma is None
    assert cfg.m == 40 and cfg.nx == 64 and cfg.resolved_ny() == 64


def test_comments_and_spacing_tolerated(tmp_path):
    cfg = parse_config("run", write(tmp_path,
        "# a comment\n\nbeta = sqrt2  # inline comment\n  m=10\n"))
    assert cfg.beta == math.sqrt(2.0)
    assert cfg.m == 10


def test_key_set_twice_rejected_with_both_lines(tmp_path):
    path = write(tmp_path, "m = 10\nnx = 8\n# note\nM = 20\n")
    with pytest.raises(ConfigError) as info:
        parse_config("run", path)
    assert info.value.violations == [f"{path}:4: key 'm' already set on line 1"]


def test_small_beta_rejected_with_message(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config("run", write(tmp_path, "beta = 0.5\n"))
    assert any("must exceed 1" in v for v in info.value.violations)


def test_gamma_flag_switches_to_graded(tmp_path):
    cfg = parse_config("run", write(tmp_path, "beta = 2\nm = 8\n"),
                       overrides={"gamma": "0.75"})
    assert cfg.gamma == 0.75


def test_all_violations_reported_at_once(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config("run", write(tmp_path,
            "beta = 0.5\nm = 1\nnx = 1\nwibble = 3\nd = 2\n"))
    text = "\n".join(info.value.violations)
    assert "shift parameter must exceed 1, got beta=0.5" in text
    assert "need at least 2 steps (two history levels), got M=1" in text
    assert "need at least 2 cells per axis, got nx=1, ny=1" in text
    assert "unknown key 'wibble'" in text
    assert "fixed by the selected example" in text
    assert len(info.value.violations) == 5


def test_flag_overrides_file(tmp_path):
    path = write(tmp_path, "beta = 2\nm = 8\n")
    cfg = parse_config("run", path, overrides={"beta": "pi", "m": "16"})
    assert cfg.beta == math.pi
    assert cfg.m == 16


def run_cli(*argv):
    return main(list(argv))


def test_cmd_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--example", "manufactured", "--beta", "2",
                   "-M", "6", "--nx", "10", "-o", str(out))
    assert code == 0
    assert (out / "field.csv").exists()
    assert (out / "report.csv").exists()
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[0].startswith("# config=")
    assert errors[1] == "Linf,L2"
    linf, l2 = (float(v) for v in errors[2].split(","))
    assert 0.0 < linf < 1.0 and 0.0 < l2 < 1.0
    assert "Linf" in capsys.readouterr().out


def test_cmd_run_wave_example(tmp_path):
    out = tmp_path / "wave"
    code = run_cli("run", "--example", "wave", "--beta", "2", "-M", "4",
                   "--nx", "10", "-o", str(out))
    assert code == 0
    body = (out / "field.csv").read_text().splitlines()
    vals = [float(r.split(",")[2]) for r in body[2:]]
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in vals)  # wave stays in [0, 1]
    assert len(vals) == 9 * 9


def test_cmd_run_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--beta", "2", "-M", "5", "--nx", "8",
                       "-o", str(out)) == 0
    assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()
    assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
    # report differs only in the timing column
    rows_a = (a / "report.csv").read_text().splitlines()
    rows_b = (b / "report.csv").read_text().splitlines()
    strip = lambda rows: [",".join(r.split(",")[:4]) for r in rows]
    assert strip(rows_a) == strip(rows_b)


def test_cmd_run_unwritable_output_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    code = run_cli("run", "--beta", "2", "-M", "4", "--nx", "8",
                   "-o", str(blocker / "sub"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cmd_convergence_requires_exactly_one_axis(tmp_path, capsys):
    base = ["convergence", "--beta", "2", "-M", "4", "--nx", "8",
            "-o", str(tmp_path / "x")]
    assert run_cli(*base) == 2
    assert run_cli(*base, "--sweep-m", "4,8", "--sweep-n", "8,16") == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


@pytest.mark.parametrize("argv, violation", [
    # range messages are the library's: SpaceGrid's and time_grid's
    (["--sweep-n", "1,2", "-M", "4"],
     "need at least 2 cells per axis, got nx=1, ny=1"),
    (["--nx", "8", "--sweep-m", "1,2"],
     "need at least 2 steps (two history levels), got M=1"),
    # a list's shape is checked with the same collected violations
    (["--nx", "8", "--sweep-m", "8,4"],
     "bad value for 'sweep_m': M list must increase by factors of 2, got [8, 4]"),
    (["--nx", "8", "--sweep-m", ""],
     "bad value for 'sweep_m': M sweep list is empty"),
    (["-M", "4", "--sweep-n", "4,4"],
     "bad value for 'sweep_n': N list must increase by factors of 2, got [4, 4]"),
    (["--nx", "8", "--sweep-m", "4,8", "--betas", ""],
     "bad value for 'betas': the list is empty"),
    (["--nx", "8", "--sweep-m", "4,8", "--grids", ""],
     "bad value for 'grids': the list is empty"),
    (["--nx", "8", "--sweep-m", "4,8", "--grids", ","],
     "bad value for 'grids': the list is empty"),
    # the entry after -c is the text of the config file
    (["--nx", "8", "--sweep-m", "4,8", "-c", "betas = ,"],
     "bad value for 'betas': the list is empty"),
    (["--nx", "8", "--sweep-m", "4,8", "--grids", "uniform,graded:-1"],
     "grading exponent must be positive and finite, got -1.0"),
    (["--nx", "8", "--sweep-m", "4,8", "--grids", "uniform,graded:0"],
     "grading exponent must be positive and finite, got 0.0"),
], ids=["sweep_n", "sweep_m", "sweep_m_decreasing", "sweep_m_empty", "sweep_n_repeated",
        "betas_empty", "grids_empty", "grids_commas", "betas_empty_config_line",
        "grids_negative_exponent", "grids_zero_exponent"])
def test_sweep_entry_below_its_key_bound_is_config_error(tmp_path, argv,
                                                         violation, capsys):
    if "-c" in argv:
        at = argv.index("-c") + 1
        config = tmp_path / "sweep.cfg"
        config.write_text(argv[at] + "\n")
        argv = [*argv[:at], str(config), *argv[at + 1:]]
    out = tmp_path / "conv"
    assert run_cli("convergence", "--example", "manufactured", *argv,
                   "-o", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"
    assert not out.exists()


def test_sweep_entry_violations_collected_with_the_others():
    with pytest.raises(ConfigError) as info:
        parse_config("convergence",
                     overrides={"sweep_m": "1,4", "sweep_n": "8,1", "beta": "1"})
    assert info.value.violations == [
        "exactly one of sweep_m / sweep_n must be set",
        "need at least 2 steps (two history levels), got M=1",
        "shift parameter must exceed 1, got beta=1.0",
        "need at least 2 cells per axis, got nx=1, ny=1",
        "bad value for 'sweep_m': M list must increase by factors of 2, got [1, 4]",
        "bad value for 'sweep_n': N list must increase by factors of 2, got [8, 1]",
    ]


@pytest.mark.parametrize("argv, build", [
    (("run", "--beta", "0.5"), lambda: uniform_coeffs(0.5)),
    (("convergence", "--nx", "8", "--sweep-m", "4,8", "--betas", "2,1"),
     lambda: uniform_coeffs(1.0)),
    (("run", "-M", "1"), lambda: time_grid(1.0, 1)),
    (("convergence", "--nx", "8", "--sweep-m", "1,2"), lambda: time_grid(1.0, 1)),
    (("run", "--t-final", "0"), lambda: time_grid(0.0, 40)),
    (("run", "--gamma", "0"), lambda: time_grid(1.0, 40, 0.0)),
    (("convergence", "--nx", "8", "--sweep-m", "4,8", "--grids", "uniform,graded:-2"),
     lambda: time_grid(1.0, 4, -2.0)),
    (("run", "--nx", "1", "--ny", "8"), lambda: example1().space_grid(1, 8)),
    (("convergence", "-M", "4", "--sweep-n", "0,0"),
     lambda: example1().space_grid(0, 0)),
], ids=["beta", "betas", "m", "sweep_m", "t_final", "gamma", "grids", "nx", "sweep_n"])
def test_range_violation_is_the_library_message(tmp_path, argv, build, capsys):
    # the CLI hands each value to the constructor that owns its range and
    # reports that constructor's message
    with pytest.raises(ValueError) as info:
        build()
    out = tmp_path / "out"
    assert run_cli(*argv, "-o", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {info.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, violations", [
    (("--nx", "4", "--sweep-m", "10,20,40,80", "--grids", "uniform,graded:40"),
     [f"nodes must be strictly increasing (M={m}, gamma=40.0)"
      for m in (10, 20, 40, 80)]),
    (("--nx", "8", "--sweep-m", "4,8", "--betas", "2,1e11"),
     ["node triple (-1.0, 0.0, 1.0) has step ratio rho = 1: the extrapolation "
      "weights amplify by 1 + 2 beta / rho > 1e+11"]),
    # the uniform weights of beta = 2e9 pass; the first graded step of each
    # grid amplifies past the bound
    (("--nx", "8", "--sweep-m", "10,20", "--grids", "graded:10", "--betas", "2,2e9"),
     ["beta=2e+09 step 2 (t=8.49111e-06): node triple (0.0, 1.6538170310997913e-07, "
      "8.491108440922268e-06) has step ratio rho = 0.0198639: the extrapolation "
      "weights amplify by 1 + 2 beta / rho > 1e+11",
      "beta=2e+09 step 2 (t=1.11312e-08): node triple (0.0, 1.786318870600212e-10, "
      "1.1131201294034554e-08) has step ratio rho = 0.0163096: the extrapolation "
      "weights amplify by 1 + 2 beta / rho > 1e+11"]),
], ids=["graded_nodes", "beta_1e11", "graded_beta_2e9"])
def test_sweep_with_a_bad_later_entry_writes_nothing(tmp_path, argv, violations,
                                                    capsys):
    # the uniform grid and beta = 2 are valid, but their tables are not
    # written either: every grid, beta and (grid, beta) pair's step weights
    # are built before the first integration
    out = tmp_path / "out"
    assert run_cli("convergence", *argv, "-o", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {v}" for v in violations]
    assert not out.exists()


def test_two_cells_per_axis_run(tmp_path):
    # SpaceGrid's floor: one interior node
    out = tmp_path / "out"
    assert run_cli("run", "--nx", "2", "-M", "4", "-o", str(out)) == 0
    assert len((out / "field.csv").read_text().splitlines()) == 3


def numeric_comparisons(tree, function):
    """Source of every comparison with a number literal in ``function``."""
    def is_number(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return False
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == function:
            yield from (ast.unparse(node) for node in ast.walk(fn)
                        if isinstance(node, ast.Compare)
                        and any(map(is_number, (node.left, *node.comparators))))


def test_parse_config_copies_no_range_rule():
    # a bound on a config value belongs to the constructor that the value
    # is handed to (time_grid, uniform_coeffs, step_weights, SpaceGrid),
    # which parse_config calls; a copy in parse_config drifts from it
    tree = ast.parse(Path(cli.__file__).read_text())
    assert list(numeric_comparisons(tree, "parse_config")) == []


def test_numeric_comparison_check_sees_copied_rules():
    tree = ast.parse(
        "def parse_config(cfg):\n"
        "    if cfg.m < 2 or not cfg.beta > 1.0 or cfg.gamma <= -1:\n"
        "        return [b for b in cfg.betas if 1 >= b and b is not True]\n"
        "    return cfg.betas == [] or cfg.m < cfg.nx\n"
        "def other(cfg):\n"
        "    return cfg.nx < 3\n"
    )
    assert sorted(numeric_comparisons(tree, "parse_config")) == [
        "1 >= b", "cfg.beta > 1.0", "cfg.gamma <= -1", "cfg.m < 2"]


def test_cmd_convergence_writes_tables_per_combination(tmp_path):
    out = tmp_path / "conv"
    code = run_cli("convergence", "--example", "manufactured", "--nx", "8",
                   "--sweep-m", "4,8", "--betas", "2,pi",
                   "--grids", "uniform,graded:0.75", "-o", str(out))
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "temporal_beta2_uniform.csv" in names
    assert "temporal_beta2_gamma0.75.csv" in names
    assert "temporal_betapi_uniform.csv" in names
    assert "temporal_betapi_gamma0.75_plot.csv" in names
    assert len(names) == 8
    body = (out / "temporal_beta2_uniform.csv").read_text()
    assert "param,Linf,order_inf,L2,order_2" in body


@pytest.mark.parametrize("axis", [("--nx", "8", "--sweep-m", "4,8"),
                                  ("-M", "4", "--sweep-n", "4,8")])
def test_convergence_tables_of_a_beta_list_equal_single_beta_tables(
        tmp_path, axis, monkeypatch):
    # the betas share one start per grid; every table keeps the bits it
    # has when its beta runs alone, apart from the config hash
    real_start = stepper.start_level
    starts = []

    def counting(*args):
        starts.append(args)
        return real_start(*args)

    monkeypatch.setattr(stepper, "start_level", counting)
    grids = ("--grids", "uniform,graded:0.75")
    assert run_cli("convergence", *axis, *grids, "--betas", "sqrt2,2,pi",
                   "-o", str(tmp_path / "all")) == 0
    assert len(starts) == 4
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert len(names) == 12
    for beta in ("sqrt2", "2", "pi"):
        one = tmp_path / beta
        assert run_cli("convergence", *axis, *grids, "--betas", beta,
                       "-o", str(one)) == 0
        for path in one.iterdir():
            got = (tmp_path / "all" / path.name).read_text().splitlines()
            want = path.read_text().splitlines()
            assert got[0].startswith("# config=") and want[0].startswith("# config=")
            assert got[1:] == want[1:]


@pytest.mark.parametrize("axis, builds", [
    (("--nx", "8", "--sweep-m", "4,8,16"), {"time_grid": 6, "space_grid": 2}),
    (("-M", "4", "--sweep-n", "4,8,16"), {"time_grid": 2, "space_grid": 6}),
], ids=["temporal", "spatial"])
def test_convergence_builds_each_grid_pair_once_for_all_betas(
        tmp_path, axis, builds, monkeypatch):
    # three betas on two grid specs: each sweep builds its three refined
    # grids and its one fixed grid once, not once per beta
    counts = dict.fromkeys(builds, 0)

    def counted(name, real):
        def build(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return build

    real_parse = cli.parse_config

    def parse(*args):
        cfg = real_parse(*args)
        counts.update(dict.fromkeys(counts, 0))  # the config check's own builds
        return cfg

    monkeypatch.setattr(analysis, "time_grid", counted("time_grid", analysis.time_grid))
    monkeypatch.setattr(ProblemSpec, "space_grid",
                        counted("space_grid", ProblemSpec.space_grid))
    monkeypatch.setattr(cli, "parse_config", parse)
    assert run_cli("convergence", *axis, "--grids", "uniform,graded:0.75",
                   "--betas", "sqrt2,2,pi", "-o", str(tmp_path / "out")) == 0
    assert counts == builds


def test_benchmark_sweep_calls_each_traced_name_once_per_integration(
        tmp_path, monkeypatch):
    # perfbench's mms-sweep-graded command: its tracer wraps these names of
    # fisherkpp.analysis, and its setup_s and cell_steps_per_s come from the
    # wrapped integrations, so a sweep that bypasses them must fail here.
    # Its three betas share one start per grid pair, made inside the first
    # beta's integration
    names = ("integrate", "exact_final_field", "linf_error", "l2_error")
    calls = dict.fromkeys(names, 0)
    running = []
    for name in names:
        def counted(*args, _name=name, _real=getattr(analysis, name), **kwargs):
            calls[_name] += 1
            running.append(_name)
            try:
                return _real(*args, **kwargs)
            finally:
                running.pop()
        monkeypatch.setattr(analysis, name, counted)
    real_start = stepper.start_level
    starts = []

    def start(*args):
        assert running == ["integrate"]
        starts.append(args[2:4])
        return real_start(*args)

    monkeypatch.setattr(stepper, "start_level", start)
    assert run_cli("convergence", "--example", "manufactured", "--nx", "16",
                   "--sweep-m", "20,40,80", "--grids", "graded:0.75",
                   "--betas", "sqrt2,2,pi", "-o", str(tmp_path / "out")) == 0
    assert calls == dict.fromkeys(names, 9)
    assert len(starts) == len(set(starts)) == 3


@pytest.mark.parametrize("flag, value, key, label", [
    ("--betas", "2,2,2.0", "betas", "2"),
    ("--betas", "1.4142135623730951,sqrt2", "betas", "sqrt2"),
    ("--betas", "2,pi,2.0000001", "betas", "2"),
    ("--grids", "graded:0.75,graded:0.75", "grids", "gamma0.75"),
    ("--grids", "uniform,UNIFORM", "grids", "uniform"),
])
def test_convergence_rejects_repeated_output_labels(tmp_path, flag, value, key,
                                                    label, capsys):
    # a repeat would rerun its sweep and overwrite the same tables
    out = tmp_path / "out"
    assert run_cli("convergence", "--nx", "8", "--sweep-m", "4,8",
                   flag, value, "-o", str(out)) == 2
    assert capsys.readouterr().err == \
        f"config error: key {key!r} repeats the output label {label!r}\n"
    assert not out.exists()


def test_repeated_labels_collected_with_the_others():
    with pytest.raises(ConfigError) as info:
        parse_config("convergence", overrides={
            "betas": "pi,2,pi,2", "grids": "uniform,uniform", "nx": "1"})
    assert info.value.violations == [
        "exactly one of sweep_m / sweep_n must be set",
        "need at least 2 cells per axis, got nx=1, ny=1",
        "key 'betas' repeats the output label 'pi'",
        "key 'betas' repeats the output label '2'",
        "key 'grids' repeats the output label 'uniform'",
    ]


def test_cmd_convergence_single_row_has_no_orders(tmp_path):
    out = tmp_path / "one"
    assert run_cli("convergence", "--nx", "8", "--sweep-m", "4",
                   "--beta", "2", "-o", str(out)) == 0
    lines = (out / "temporal_beta2_uniform.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 2
    assert data[1].split(",")[2] == ""


def test_cmd_grid_matches_library(tmp_path, capsys):
    assert run_cli("grid", "-M", "8", "--gamma", "0.75") == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "index,t_n"
    got = [float(r.split(",")[1]) for r in rows[1:]]
    np.testing.assert_array_equal(got, graded_grid(1.0, 8, 0.75).nodes)


def test_cmd_coeffs_uniform_and_nodes(tmp_path, capsys):
    assert run_cli("coeffs", "--beta", "2") == 0
    out = capsys.readouterr().out
    values = dict(line.split(",") for line in out.splitlines()[1:])
    assert float(values["a2"]) == 2.5
    assert float(values["b0"]) == -1.0
    assert run_cli("coeffs", "--beta", "2", "--nodes", "0,0.5,1") == 0
    # frozen output of the closed form over the given nodes
    assert capsys.readouterr().out.splitlines() == [
        "coefficient,value", "kind,nodes", "beta,2.0",
        "a0,3.0", "a1,-8.0", "a2,5.0", "b0,-1.0", "b1,2.0",
        "c0,-2.0", "c1,3.0", "t_eval,1.5",
    ]


@pytest.mark.parametrize("argv, violation", [
    (("coeffs", "--beta", "2", "--nodes", "nan,0.5,1"),
     "bad value for '--nodes': 'nan' is not a finite number"),
    (("coeffs", "--beta", "2", "--nodes", "0,x,1"),
     "bad value for '--nodes': could not convert string to float: 'x'"),
    # out-of-range grid and weight values exit 2, as they do in run
    (("run", "-M", "1"), "need at least 2 steps (two history levels), got M=1"),
    (("run", "--beta", "0.5"), "shift parameter must exceed 1, got beta=0.5"),
    (("grid", "-M", "1"), "need at least 2 steps (two history levels), got M=1"),
    (("grid", "-T", "0", "-M", "4"),
     "final time must be positive and finite, got 0.0"),
    (("grid", "-M", "4", "--gamma", "-1"),
     "grading exponent must be positive and finite, got -1.0"),
    (("coeffs", "--beta", "0.5"), "shift parameter must exceed 1, got beta=0.5"),
    (("coeffs", "--beta", "2", "--nodes", "0,0,1"),
     "nodes must be strictly increasing, got (0.0, 0.0, 1.0)"),
    (("run", "-M", "80", "--gamma", "40", "--nx", "4"),
     "nodes must be strictly increasing (M=80, gamma=40.0)"),
    # small step ratios, down to one that underflows to 0
    (("coeffs", "--beta", "2", "--nodes", "0,1e-14,1"),
     "node triple (0.0, 1e-14, 1.0) has step ratio rho = 1e-14: the "
     "extrapolation weights amplify by 1 + 2 beta / rho > 1e+11"),
    (("coeffs", "--beta", "2", "--nodes", "0,1e-300,1"),
     "node triple (0.0, 1e-300, 1.0) has step ratio rho = 1e-300: the "
     "extrapolation weights amplify by 1 + 2 beta / rho > 1e+11"),
    (("coeffs", "--beta", "2", "--nodes", "0,5e-324,1e10"),
     "node triple (0.0, 5e-324, 10000000000.0) has step ratio rho = 0: the "
     "extrapolation weights amplify by 1 + 2 beta / rho > 1e+11"),
    # a ratio that overflows to inf passes the guard; its a weights do not
    (("coeffs", "--beta", "2", "--nodes=-1e300,0,5e-324"),
     "node triple (-1e+300, 0.0, 5e-324) gives non-finite weights: "
     "the step 4.94066e-324 is too small"),
    # a subnormal step, whose 1/tau overflows
    (("coeffs", "--beta", "2", "--nodes", "0,1e-321,2e-321"),
     "node triple (0.0, 1e-321, 2e-321) gives non-finite weights: "
     "the step 1.00295e-321 is too small"),
    # nodes whose ratio passes but whose shifted time overflows
    (("coeffs", "--beta", "2", "--nodes=-1e300,0,1e308"),
     "node triple (-1e+300, 0.0, 1e+308) gives a non-finite shifted time "
     "t* = inf"),
], ids=["nan,0.5,1-'nan' is not a finite number",
        "0,x,1-could not convert string to float: 'x'",
        "run_m", "run_beta", "grid_m", "grid_t", "grid_gamma", "coeffs_beta",
        "coeffs_nodes", "run_nodes", "ratio_1e-14", "ratio_1e-300",
        "ratio_underflow", "ratio_overflow", "subnormal_step",
        "shifted_time_overflow"])
def test_cmd_coeffs_bad_node_is_config_error(tmp_path, argv, violation, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv, "-o", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"
    assert not out.exists()


def test_run_on_steps_below_1e_162(tmp_path):
    # the weights of a 5e-171 step came out infinite before the offsets
    # were scaled to unit size, and the L2 error underflowed to 0 before
    # the difference was scaled
    assert run_cli("run", "-M", "4", "--nx", "8", "--t-final", "1e-170",
                   "-o", str(tmp_path / "out")) == 0
    errors = (tmp_path / "out" / "errors.csv").read_text().splitlines()
    linf, l2 = map(float, errors[-1].split(","))
    assert 0.0 < linf < 1e-180 and 0.0 < l2 < 1e-180


@pytest.mark.parametrize("t_final", ["1e-160", "1e-300", "1e-307"])
def test_run_on_steps_whose_right_hand_side_norm_overflows(tmp_path, t_final):
    # the wave's step right-hand side grows like 1/tau: past about 1e154 its
    # 2-norm overflows although every entry is finite, and CG solves the
    # system scaled by a power of two
    out = tmp_path / "out"
    assert run_cli("run", "--example", "wave", "-M", "4", "--nx", "8",
                   "--t-final", t_final, "-o", str(out)) == 0
    rows = (out / "report.csv").read_text().splitlines()[3:]
    assert len(rows) == 3
    assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


def test_run_on_subnormal_steps_names_non_finite_weights(tmp_path, capsys):
    # the weights of a 2.5e-321 step overflow; step_weights reads float
    # nodes, so numpy warns of no overflow on the way. Weights that cannot
    # be formed are a config error, as in coeffs, found before any output
    out = tmp_path / "out"
    assert run_cli("run", "-M", "4", "--nx", "8", "--t-final", "1e-320",
                   "-o", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: beta=2 step 2 (t=4.99994e-321): node triple (0.0, 2.5e-321, "
        "5e-321) gives non-finite weights: the step 2.49997e-321 is too small",
    ]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("run", "-M", "8", "--nx", "16"),
    ("convergence", "--nx", "16", "--sweep-m", "8,16", "--betas", "2,pi"),
], ids=["run", "convergence"])
def test_command_that_fails_after_it_starts_leaves_no_directory(
        tmp_path, argv, monkeypatch, capsys):
    # CG capped at one iteration cannot meet the tolerance on the first
    # step; both commands start with DP5(4) at N = 16, so they solve with CG
    monkeypatch.setattr(stepper, "cg_solve", partial(cg_solve, max_iter=1))
    out = tmp_path / "out"
    assert run_cli(*argv, "-o", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: step 2 (t=")
    assert err[1].startswith("  cause: CG stalled at relative residual ")
    assert not out.exists()


def test_run_with_a_rejected_step_triple_is_a_config_error(tmp_path, capsys):
    # at beta = 1e11 even a uniform triple amplifies the extrapolation by
    # 2e11: the config check builds the uniform weights and fails before the
    # start, with the CoefficientError that makes coeffs exit 2
    out = tmp_path / "out"
    assert run_cli("run", "--example", "wave", "--nx", "16", "-M", "10",
                   "--beta", "1e11", "-o", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: node triple (-1.0, 0.0, 1.0) has step ratio rho = 1: the "
        "extrapolation weights amplify by 1 + 2 beta / rho > 1e+11",
    ]
    assert not out.exists()
    assert run_cli("coeffs", "--beta", "1e11") == 2


@pytest.mark.parametrize("argv", [
    ("coeffs", "--beta", "1000"),
    ("coeffs", "--beta", "2", "--nodes", "0,1,1.000001"),
    ("run", "--example", "wave", "--nx", "16", "-M", "100", "--beta", "1000"),
], ids=["coeffs_beta_1000", "coeffs_ratio_1e6", "run_beta_1000"])
def test_large_beta_and_shrinking_step_are_admitted(tmp_path, argv):
    # a uniform triple at beta = 1000 amplifies the extrapolation by 2001,
    # a step that shrinks by 1e6 by 1 + 4e-6
    assert run_cli(*argv, "-o", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("line", ["solver = cg", "max_iter = 5",
                                  "grid = graded", "tol = 1e-12"])
def test_removed_solver_keys_are_unknown(tmp_path, line, capsys):
    assert run_cli("run", "-c", str(write(tmp_path, line + "\n"))) == 2
    key = line.split()[0]
    assert capsys.readouterr().err == f"config error: unknown key {key!r}\n"


@pytest.mark.parametrize("argv", [
    ("run", "--solver", "direct"),
    ("run", "--max-iter", "5"),
    ("coeffs", "--beta", "2", "--nodes", "0,0.5,1", "--route", "lagrange"),
    ("run", "--grid", "uniform"),
    ("run", "--tol", "1e-12"),
    ("grid", "--kind", "graded", "-M", "8", "--gamma", "0.75"),
])
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["betas = 2,pi", "sweep_m = 4,8",
                                  "sweep_n = 8,16", "grids = uniform"])
def test_run_rejects_sweep_keys(tmp_path, line, capsys):
    path = write(tmp_path, f"m = 4\nnx = 8\n{line}\n")
    assert run_cli("run", "-c", str(path), "-o", str(tmp_path / "out")) == 2
    key = line.split()[0]
    assert capsys.readouterr().err == \
        f"config error: key {key!r} is not used by run\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, argv, violations", [
    ("betas = 0.5", ("run", "-M", "4"), ["key 'betas' is not used by run"]),
    ("sweep_m = 4,8", ("run", "--beta", "0.5", "-M", "4"),
     ["key 'sweep_m' is not used by run",
      "shift parameter must exceed 1, got beta=0.5"]),
    (None, ("convergence", "--beta", "0.5", "--betas", "2", "--sweep-m", "4,8",
            "--sweep-n", "4,8"),
     ["exactly one of sweep_m / sweep_n must be set",
      "key 'beta' is not used by convergence with betas"]),
], ids=["run_ignores_betas", "run_ignores_sweep_m", "convergence_two_axes"])
def test_key_rules_join_the_collected_violations(tmp_path, config, argv,
                                                 violations, capsys):
    # a key the command ignores is reported, never range checked, and
    # reported with the other violations
    if config is not None:
        argv = (*argv, "-c", str(write(tmp_path, config + "\n")))
    out = tmp_path / "out"
    assert run_cli(*argv, "--nx", "4", "-o", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {v}" for v in violations]
    assert not out.exists()


def test_spatial_sweep_rejects_ny(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("convergence", "--sweep-n", "8,16", "--ny", "32", "-M", "4",
                   "-o", str(out)) == 2
    assert "key 'ny' is not used" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_grids_rejects_gamma(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("convergence", "--sweep-m", "4,8", "--nx", "8",
                   "--grids", "uniform", "--gamma", "0.5", "-o", str(out)) == 2
    assert "key 'gamma' is not used" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (("--nx", "8", "--sweep-m", "4,8", "-M", "100"), "m"),
    (("--sweep-n", "8,16", "-M", "10", "--nx", "32"), "nx"),
    (("--nx", "8", "--sweep-m", "4,8", "--beta", "3", "--betas", "2,pi"), "beta"),
])
def test_sweep_rejects_key_it_would_ignore(tmp_path, argv, key, capsys):
    # m, nx and beta have defaults, so only the given keys tell them apart
    out = tmp_path / "out"
    assert run_cli("convergence", *argv, "-o", str(out)) == 2
    assert f"key {key!r} is not used" in capsys.readouterr().err
    assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


class Reached(BaseException):
    """Raised by a stubbed solve; main's Exception boundary lets it through."""


def test_readme_cli_examples_pass_config_validation(tmp_path, monkeypatch,
                                                    capsys):
    # every `fisherkpp ...` example, `\` continuations joined, passes config
    # validation: run and convergence reach their stubbed solve, dumps exit 0
    lines = README.read_text().splitlines()
    # the README's config file block, which `run -c config.txt` reads
    first = next(i for i, line in enumerate(lines)
                 if line.startswith("    example = "))
    block = itertools.takewhile(lambda line: line.startswith("    "),
                                lines[first:])
    write(tmp_path, "\n".join(block) + "\n", "config.txt")
    examples, current = [], ""
    for line in lines:
        text = line.strip()
        if line.startswith("    ") and (current or text.startswith("fisherkpp ")):
            current += " " + text.removesuffix("\\")
            if not text.endswith("\\"):
                examples.append(shlex.split(current)[1:])
                current = ""
    assert {argv[0] for argv in examples} == {"run", "convergence", "grid",
                                              "coeffs"}

    def solve(*args, **kwargs):
        raise Reached

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate", solve)
    monkeypatch.setattr(analysis, "temporal_sweep", solve)
    monkeypatch.setattr(analysis, "spatial_sweep", solve)
    for argv in examples:
        try:
            code = main(argv)
            assert code == 0 and argv[0] in ("grid", "coeffs"), \
                (argv, code, capsys.readouterr().err)
        except Reached:
            assert argv[0] in ("run", "convergence"), argv
        except SystemExit as exc:
            pytest.fail(f"{argv} exits {exc.code}: {capsys.readouterr().err}")
    assert capsys.readouterr().err == ""


def test_unknown_example_exits_2(capsys):
    assert run_cli("run", "--example", "manufactured", "--beta", "1") == 2
    assert "config error" in capsys.readouterr().err


def test_config_hash_stable():
    assert RunConfig().hash() == RunConfig().hash()
    assert RunConfig(beta=2.0).hash() != RunConfig(beta=3.0).hash()
    assert RunConfig().hash() == "bdddeac54f4f"
    assert parse_config("convergence", overrides={
        "nx": "16", "sweep_m": "20,40,80", "grids": "graded:0.75",
        "betas": "sqrt2,2,pi"}).hash() == "0a0decf3731c"
