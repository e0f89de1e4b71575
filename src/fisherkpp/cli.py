"""Experiment CLI: run single integrations, convergence sweeps, and dumps.

Configuration is a flat key = value file (# comments allowed); command
line flags override file values. Every artifact CSV starts with comment
lines naming the resolved config hash, so outputs are traceable to their
inputs. Subcommands: run, convergence, grid, coeffs.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import analysis, timegrid
from .coeffs import CoefficientError, nonuniform_coeffs, uniform_coeffs
from .problems import PROBLEMS
from .spatial import field_to_csv
from .stepper import integrate

_SYMBOLIC = {"sqrt2": math.sqrt(2.0), "pi": math.pi}


class ConfigError(ValueError):
    """All configuration violations, collected."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def parse_float(text: str) -> float:
    """A finite float; ``sqrt2`` and ``pi`` are accepted by name."""
    text = str(text).strip().lower()
    value = _SYMBOLIC[text] if text in _SYMBOLIC else float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _parse_float_list(text):
    return [parse_float(tok) for tok in str(text).split(",") if tok.strip()]


def _parse_grid_list(text):
    """grid specs: 'uniform' or 'graded:<gamma>', comma separated.

    Yields the grading exponent of each grid, None for uniform.
    """
    out = []
    for tok in str(text).split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok == "uniform":
            out.append(None)
        elif tok.startswith("graded:"):
            out.append(parse_float(tok.split(":", 1)[1]))
        else:
            raise ValueError(f"bad grid spec {tok!r}")
    return out


@dataclass
class RunConfig:
    """Resolved experiment configuration with defaults filled in."""

    example: str = "manufactured"
    beta: float = 2.0
    gamma: float | None = None
    m: int = 40
    nx: int = 64
    ny: int | None = None
    t_final: float = 1.0
    output: str = "runs"
    sweep_m: list[int] | None = None
    sweep_n: list[int] | None = None
    betas: list[float] | None = None
    grids: list[float | None] | None = None
    # keys set by the config file or a flag, so that a subcommand can reject
    # one it would ignore even when that key has a default
    given: frozenset[str] = field(default=frozenset(), init=False, compare=False)

    def resolved_ny(self) -> int:
        return self.nx if self.ny is None else self.ny

    def canonical(self) -> str:
        # the output path is a venue detail, not part of the experiment
        # identity, and which keys were given does not change the experiment
        parts = []
        for f in fields(self):
            if f.name in ("output", "given"):
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(parts)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


_PARSERS = {
    "example": str,
    "beta": parse_float,
    "gamma": parse_float,
    "m": int,
    "nx": int,
    "ny": int,
    "t_final": parse_float,
    "output": str,
    "sweep_m": _parse_int_list,
    "sweep_n": _parse_int_list,
    "betas": _parse_float_list,
    "grids": _parse_grid_list,
}

# keys fixed by the built-in problem definitions; overriding them would
# silently invalidate the recorded exact-solution errors
_LOCKED_KEYS = ("d", "k", "form", "p", "q")


def read_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment; a key is set once."""
    raw = {}
    set_on = {}
    violations = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"{path}:{lineno}: expected key = value, got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in set_on:
            violations.append(f"{path}:{lineno}: key {key!r} already set "
                              f"on line {set_on[key]}")
            continue
        set_on[key] = lineno
        raw[key] = value
    if violations:
        raise ConfigError(violations)
    return raw


def parse_config(file_path=None, overrides=None) -> RunConfig:
    """Build a validated RunConfig from a file plus flag overrides.

    Collects every violation before failing, so a bad config reports all
    of its problems at once.
    """
    raw = read_config_file(file_path) if file_path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key.lower()] = value

    violations = []
    cfg = RunConfig()
    cfg.given = frozenset(raw)
    for key, value in raw.items():
        if key in _LOCKED_KEYS:
            violations.append(
                f"key {key!r} is fixed by the selected example (code-level "
                "custom problems only)"
            )
            continue
        if key not in _PARSERS:
            violations.append(f"unknown key {key!r}")
            continue
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except (TypeError, ValueError) as exc:
            violations.append(f"bad value for {key!r}: {exc}")

    if cfg.example not in PROBLEMS:
        violations.append(
            f"unknown example {cfg.example!r}; choices: {sorted(PROBLEMS)}"
        )
    if not cfg.beta > 1.0:
        violations.append(f"beta must exceed 1, got {cfg.beta}")
    if cfg.m < 2:
        violations.append(f"M must be at least 2, got {cfg.m}")
    if cfg.nx < 3 or cfg.resolved_ny() < 3:
        violations.append(f"Nx, Ny must be at least 3, got {cfg.nx}, {cfg.resolved_ny()}")
    # one violation per sweep list: its entries' bound, else its shape
    for key, label, entry, least in (("sweep_m", "M", "an M", 2),
                                     ("sweep_n", "N", "an Nx = Ny", 3)):
        values = getattr(cfg, key)
        if values is None:
            continue
        if min(values, default=least) < least:
            violations.append(f"every {key} entry ({entry}) must be at least "
                              f"{least}, got {values}")
            continue
        try:
            analysis._check_doubling(values, label)
        except ValueError as exc:
            violations.append(f"bad value for {key!r}: {exc}")
    if cfg.gamma is not None and cfg.gamma <= 0:
        violations.append(f"gamma must be positive, got {cfg.gamma}")
    if cfg.t_final <= 0:
        violations.append(f"t_final must be positive, got {cfg.t_final}")
    if cfg.betas is not None and any(b <= 1.0 for b in cfg.betas):
        violations.append(f"every beta must exceed 1, got {cfg.betas}")
    # each entry names its own table files, which a repeat would overwrite
    for key, label_of in (("betas", _beta_label), ("grids", _grid_label)):
        labels = [label_of(value) for value in getattr(cfg, key) or ()]
        for label in dict.fromkeys(la for la in labels if labels.count(la) > 1):
            violations.append(f"key {key!r} repeats the output label {label!r}")
    if violations:
        raise ConfigError(violations)
    return cfg


def _reject_unused(cfg: RunConfig, keys, use: str) -> None:
    unused = [key for key in keys if key in cfg.given]
    if unused:
        raise ConfigError([f"key {key!r} is not used by {use}" for key in unused])


def cmd_run(cfg: RunConfig) -> int:
    _reject_unused(cfg, ("sweep_m", "sweep_n", "betas", "grids"), "run")
    problem = PROBLEMS[cfg.example](T=cfg.t_final)
    sgrid = problem.space_grid(cfg.nx, cfg.resolved_ny())
    tgrid = timegrid.time_grid(cfg.t_final, cfg.m, cfg.gamma)
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    header = [f"config={cfg.hash()}"]

    u, report = integrate(problem, tgrid, sgrid, cfg.beta)
    field_to_csv(u, sgrid, out / "field.csv", header_lines=header)
    report.to_csv(out / "report.csv", header_lines=header)

    if problem.exact is not None:
        exact = analysis.exact_final_field(problem, sgrid, tgrid.T)
        linf = analysis.linf_error(u, exact)
        l2 = analysis.l2_error(u, exact, sgrid)
        with open(out / "errors.csv", "w") as fh:
            fh.write(f"# config={cfg.hash()}\n")
            fh.write("Linf,L2\n")
            fh.write(f"{linf!r},{l2!r}\n")
        print(f"{cfg.example}: M={tgrid.M} N={cfg.nx}x{cfg.resolved_ny()} "
              f"beta={cfg.beta:.6g} {tgrid.kind}: Linf={linf:.6e} L2={l2:.6e}")
    else:
        print(f"{cfg.example}: run complete (no exact solution; errors skipped)")
    return 0


def _beta_label(beta: float) -> str:
    for name, value in _SYMBOLIC.items():
        if abs(beta - value) < 1e-14:
            return name
    return f"{beta:.6g}"


def _grid_label(gamma: float | None) -> str:
    return "uniform" if gamma is None else f"gamma{gamma:g}"


def cmd_convergence(cfg: RunConfig) -> int:
    if (cfg.sweep_m is None) == (cfg.sweep_n is None):
        raise ConfigError(["exactly one of sweep_m / sweep_n must be set"])
    if cfg.sweep_m is not None:
        _reject_unused(cfg, ("m",), "a temporal sweep (sweep_m sets M)")
    else:
        _reject_unused(cfg, ("nx", "ny"),
                       "a spatial sweep (sweep_n sets its square grids)")
    if cfg.betas is not None:
        _reject_unused(cfg, ("beta",), "convergence with betas")
    if cfg.grids is not None:
        _reject_unused(cfg, ("gamma",), "convergence with grids")
    problem = PROBLEMS[cfg.example](T=cfg.t_final)
    betas = cfg.betas if cfg.betas is not None else [cfg.beta]
    grids = cfg.grids if cfg.grids is not None else [cfg.gamma]
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    header = [f"config={cfg.hash()}"]
    # u^1 does not depend on beta: every beta marches from one start per grid
    starts = {}

    for beta in betas:
        for gamma in grids:
            if cfg.sweep_m is not None:
                table = analysis.temporal_sweep(
                    problem, beta, cfg.sweep_m, cfg.nx, cfg.resolved_ny(),
                    gamma=gamma, starts=starts,
                )
            else:
                table = analysis.spatial_sweep(
                    problem, beta, cfg.sweep_n, cfg.m,
                    gamma=gamma, starts=starts,
                )
            stem = f"{table.axis}_beta{_beta_label(beta)}_{_grid_label(gamma)}"
            table.write_csv(out / f"{stem}.csv", header_lines=header)
            table.write_plot_data(out / f"{stem}_plot.csv", header_lines=header)
            last = table.rows[-1]
            print(f"{stem}: Linf={last.linf:.4e} order_inf="
                  f"{'-' if last.order_inf is None else f'{last.order_inf:.3f}'}")
    return 0


def cmd_grid(args) -> int:
    tg = timegrid.time_grid(args.T, args.M, args.gamma)
    lines = ["index,t_n"] + [f"{n},{float(t)!r}" for n, t in enumerate(tg.nodes)]
    _emit(lines, args.output)
    return 0


def cmd_coeffs(args) -> int:
    if args.nodes is None:
        cf = uniform_coeffs(args.beta)
        kind = "uniform"
    else:
        try:
            nodes = _parse_float_list(args.nodes)
        except ValueError as exc:
            raise ConfigError([f"bad value for '--nodes': {exc}"]) from None
        if len(nodes) != 3:
            raise ConfigError(["--nodes needs exactly three times t0,t1,t2"])
        cf = nonuniform_coeffs(*nodes, args.beta)
        kind = "vandermonde"
    lines = ["coefficient,value", f"kind,{kind}", f"beta,{args.beta!r}"]
    for name, val in (("a0", cf.a[0]), ("a1", cf.a[1]), ("a2", cf.a[2]),
                      ("b0", cf.b[0]), ("b1", cf.b[1]),
                      ("c0", cf.c[0]), ("c1", cf.c[1]),
                      ("t_eval", cf.t_eval)):
        lines.append(f"{name},{val!r}")
    _emit(lines, args.output)
    return 0


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _add_config_flags(p):
    p.add_argument("-c", "--config", help="key = value config file")
    p.add_argument("--example", choices=sorted(PROBLEMS))
    p.add_argument("--beta", help="shift parameter (> 1; sqrt2 and pi accepted)")
    p.add_argument("--gamma", help="grading exponent (implies graded)")
    p.add_argument("-M", "--m", dest="m", help="time step count")
    p.add_argument("--nx", help="cells along x")
    p.add_argument("--ny", help="cells along y (default: nx)")
    p.add_argument("--t-final", dest="t_final", help="final time")
    p.add_argument("-o", "--output", help="output directory")


def _overrides(args) -> dict:
    return {k: getattr(args, k) for k in _PARSERS
            if getattr(args, k, None) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherkpp",
        description="Shifted BDF2-IMEX experiments for the 2D Fisher-KPP equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single integration with artifacts")
    _add_config_flags(p_run)

    p_conv = sub.add_parser("convergence", help="refinement sweep tables")
    _add_config_flags(p_conv)
    p_conv.add_argument("--sweep-m", dest="sweep_m",
                        help="comma list of M values (doubling)")
    p_conv.add_argument("--sweep-n", dest="sweep_n",
                        help="comma list of N values (doubling)")
    p_conv.add_argument("--betas", help="comma list of shift parameters")
    p_conv.add_argument("--grids",
                        help="comma list of grid specs: uniform, graded:<gamma>")

    p_grid = sub.add_parser("grid", help="dump time grid nodes as CSV")
    p_grid.add_argument("-T", type=parse_float, default=1.0)
    p_grid.add_argument("-M", type=int, required=True)
    p_grid.add_argument("--gamma", type=parse_float,
                        help="grading exponent (implies graded)")
    p_grid.add_argument("-o", "--output")

    p_cf = sub.add_parser("coeffs", help="dump step coefficients as CSV")
    p_cf.add_argument("--beta", type=parse_float, required=True)
    p_cf.add_argument("--nodes", help="t0,t1,t2 for a nonuniform step")
    p_cf.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "grid":
            return cmd_grid(args)
        if args.command == "coeffs":
            return cmd_coeffs(args)
        cfg = parse_config(args.config, _overrides(args))
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_convergence(cfg)
    # a time grid or node triple out of range is a bad config value too
    except (ConfigError, timegrid.GridConstructionError, CoefficientError) as exc:
        for v in getattr(exc, "violations", [exc]):
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        if exc.__cause__ is not None:
            print(f"  cause: {exc.__cause__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
