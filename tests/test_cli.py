import itertools
import math
import shlex
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
from fisherkpp.timegrid import graded_grid


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
    cfg = parse_config(write(tmp_path,
        "example = manufactured\nbeta = 2\nm = 40\nnx = 64\nny = 64\n"))
    assert cfg.gamma is None
    assert cfg.m == 40 and cfg.nx == 64 and cfg.resolved_ny() == 64


def test_comments_and_spacing_tolerated(tmp_path):
    cfg = parse_config(write(tmp_path,
        "# a comment\n\nbeta = sqrt2  # inline comment\n  m=10\n"))
    assert cfg.beta == math.sqrt(2.0)
    assert cfg.m == 10


def test_key_set_twice_rejected_with_both_lines(tmp_path):
    path = write(tmp_path, "m = 10\nnx = 8\n# note\nM = 20\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.violations == [f"{path}:4: key 'm' already set on line 1"]


def test_small_beta_rejected_with_message(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path, "beta = 0.5\n"))
    assert any("must exceed 1" in v for v in info.value.violations)


def test_gamma_flag_switches_to_graded(tmp_path):
    cfg = parse_config(write(tmp_path, "beta = 2\nm = 8\n"),
                       overrides={"gamma": "0.75"})
    assert cfg.gamma == 0.75


def test_all_violations_reported_at_once(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path,
            "beta = 0.5\nm = 1\nnx = 2\nwibble = 3\nd = 2\n"))
    text = "\n".join(info.value.violations)
    assert "must exceed 1" in text
    assert "at least 2" in text
    assert "at least 3" in text
    assert "unknown key 'wibble'" in text
    assert "fixed by the selected example" in text
    assert len(info.value.violations) >= 5


def test_flag_overrides_file(tmp_path):
    path = write(tmp_path, "beta = 2\nm = 8\n")
    cfg = parse_config(path, overrides={"beta": "pi", "m": "16"})
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
    (["--sweep-n", "2,4", "-M", "4"],
     "every sweep_n entry (an Nx = Ny) must be at least 3, got [2, 4]"),
    (["--nx", "8", "--sweep-m", "1,2"],
     "every sweep_m entry (an M) must be at least 2, got [1, 2]"),
    # a list's shape is checked with the same collected violations
    (["--nx", "8", "--sweep-m", "8,4"],
     "bad value for 'sweep_m': M list must increase by factors of 2, got [8, 4]"),
    (["--nx", "8", "--sweep-m", ""],
     "bad value for 'sweep_m': M sweep list is empty"),
    (["-M", "4", "--sweep-n", "4,4"],
     "bad value for 'sweep_n': N list must increase by factors of 2, got [4, 4]"),
], ids=["sweep_n", "sweep_m", "sweep_m_decreasing", "sweep_m_empty", "sweep_n_repeated"])
def test_sweep_entry_below_its_key_bound_is_config_error(tmp_path, argv,
                                                         violation, capsys):
    out = tmp_path / "conv"
    assert run_cli("convergence", "--example", "manufactured", *argv,
                   "-o", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"
    assert not out.exists()


def test_sweep_entry_violations_collected_with_the_others():
    with pytest.raises(ConfigError) as info:
        parse_config(overrides={"sweep_m": "1,4", "sweep_n": "8,2", "beta": "1"})
    assert len(info.value.violations) == 3


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
        parse_config(overrides={"betas": "pi,2,pi,2", "grids": "uniform,uniform",
                                "nx": "2"})
    assert info.value.violations[1:] == [
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
    # frozen output of the Vandermonde route
    assert capsys.readouterr().out.splitlines() == [
        "coefficient,value", "kind,vandermonde", "beta,2.0",
        "a0,3.0", "a1,-8.0", "a2,5.0", "b0,-1.0", "b1,2.0",
        "c0,-2.0", "c1,3.0", "t_eval,1.5",
    ]


@pytest.mark.parametrize("argv, violation", [
    (("coeffs", "--beta", "2", "--nodes", "nan,0.5,1"),
     "bad value for '--nodes': 'nan' is not a finite number"),
    (("coeffs", "--beta", "2", "--nodes", "0,x,1"),
     "bad value for '--nodes': could not convert string to float: 'x'"),
    # out-of-range grid and weight values exit 2, as they do in run
    (("run", "-M", "1"), "M must be at least 2, got 1"),
    (("run", "--beta", "0.5"), "beta must exceed 1, got 0.5"),
    (("grid", "-M", "1"), "need at least 2 steps (two history levels), got M=1"),
    (("grid", "-T", "0", "-M", "4"), "final time must be positive, got 0.0"),
    (("grid", "-M", "4", "--gamma", "-1"),
     "grading exponent must be positive, got -1.0"),
    (("coeffs", "--beta", "0.5"), "shift parameter must exceed 1, got beta=0.5"),
    (("coeffs", "--beta", "2", "--nodes", "0,0,1"),
     "nodes must be strictly increasing, got (0.0, 0.0, 1.0)"),
    (("run", "-M", "80", "--gamma", "40", "--nx", "4"),
     "nodes must be strictly increasing (M=80, gamma=40.0)"),
    # extreme step ratios, down to one that underflows to 0 or overflows
    (("coeffs", "--beta", "2", "--nodes", "0,1e-300,1"),
     "near-degenerate node triple (0.0, 1e-300, 1.0): "
     "Vandermonde condition exceeds 1e+12"),
    (("coeffs", "--beta", "2", "--nodes", "0,5e-324,1e10"),
     "near-degenerate node triple (0.0, 5e-324, 10000000000.0): "
     "Vandermonde condition exceeds 1e+12"),
    (("coeffs", "--beta", "2", "--nodes=-1e300,0,5e-324"),
     "near-degenerate node triple (-1e+300, 0.0, 5e-324): "
     "Vandermonde condition exceeds 1e+12"),
    # a subnormal step, whose 1/tau overflows
    (("coeffs", "--beta", "2", "--nodes", "0,1e-321,2e-321"),
     "node triple (0.0, 1e-321, 2e-321) gives non-finite weights: "
     "the step 1.00295e-321 is too small"),
], ids=["nan,0.5,1-'nan' is not a finite number",
        "0,x,1-could not convert string to float: 'x'",
        "run_m", "run_beta", "grid_m", "grid_t", "grid_gamma", "coeffs_beta",
        "coeffs_nodes", "run_nodes", "ratio_1e-300", "ratio_underflow",
        "ratio_overflow", "subnormal_step"])
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


def test_run_on_subnormal_steps_names_non_finite_weights(tmp_path, capsys):
    # the weights of a 2.5e-321 step overflow; integrate hands the step
    # float nodes, so numpy warns of no overflow on the way
    assert run_cli("run", "-M", "4", "--nx", "8", "--t-final", "1e-320",
                   "-o", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: step 2 (t=4.99994e-321) failed",
        "  cause: node triple (0.0, 2.5e-321, 5e-321) gives non-finite weights: "
        "the step 2.49997e-321 is too small",
    ]


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
    # recording which keys were given leaves every hash as it was
    assert RunConfig().hash() == "bdddeac54f4f"
    assert parse_config(overrides={"nx": "16", "sweep_m": "20,40,80",
                                   "grids": "graded:0.75",
                                   "betas": "sqrt2,2,pi"}).hash() == "0a0decf3731c"
