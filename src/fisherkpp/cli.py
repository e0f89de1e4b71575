"""Experiment CLI: run single integrations, convergence sweeps, and dumps.

Configuration is a flat key = value file (# comments allowed); command
line flags override file values. Every artifact CSV starts with comment
lines naming the resolved config hash, so outputs are traceable to their
inputs. Subcommands: run, convergence, grid, coeffs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import analysis, timegrid
from .coeffs import CoefficientError, nonuniform_coeffs, uniform_coeffs
from .problems import PROBLEMS
from .spatial import field_to_csv
from .stepper import integrate, step_weights

# CPython's builtin SHA-256, as random.py takes its sha512: hashlib would
# load OpenSSL, a few MB of memory for one 12-digit config hash
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_SYMBOLIC = {"sqrt2": math.sqrt(2.0), "pi": math.pi}


class ConfigError(ValueError):
    """All configuration violations, collected, each distinct one once."""

    def __init__(self, violations):
        self.violations = list(dict.fromkeys(violations))
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

    def resolved_ny(self) -> int:
        return self.nx if self.ny is None else self.ny

    def canonical(self) -> str:
        # the output path is a venue detail, not part of the experiment identity
        parts = []
        for f in fields(self):
            if f.name == "output":
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(parts)

    def hash(self) -> str:
        return sha256(self.canonical().encode()).hexdigest()[:12]


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
    """Flat key = value lines; '#' starts a comment; a key is set once.
    A file that cannot be read as text is a violation too."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"{path}: cannot read the file: {reason}"]) from None
    raw = {}
    set_on = {}
    violations = []
    for lineno, line in enumerate(text.splitlines(), 1):
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


def parse_config(command: str, file_path=None, overrides=None) -> RunConfig:
    """Build a validated RunConfig for ``command`` ("run" or "convergence")
    from a file plus flag overrides.

    Collects every violation before failing, so a bad config reports all
    of its problems at once. A key the command would ignore is a
    violation and is not read. Range rules are the library's: each time
    grid, beta, space grid and (time grid, beta) pair's step weights the
    command runs is built, and what it rejects is a violation. So is an
    output path that an existing file blocks, as the command makes the
    directory only once its computation is done.
    """
    raw = read_config_file(file_path) if file_path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key.lower()] = value

    # each key the command would ignore, with what ignores it
    violations, unused = [], {}
    if command == "run":
        unused = dict.fromkeys(("sweep_m", "sweep_n", "betas", "grids"), "run")
    else:
        if ("sweep_m" in raw) == ("sweep_n" in raw):
            violations.append("exactly one of sweep_m / sweep_n must be set")
        elif "sweep_m" in raw:
            unused["m"] = "a temporal sweep (sweep_m sets M)"
        else:
            unused = dict.fromkeys(
                ("nx", "ny"), "a spatial sweep (sweep_n sets its square grids)")
        unused.update({key: f"convergence with {keys}" for key, keys
                       in (("beta", "betas"), ("gamma", "grids")) if keys in raw})
    cfg = RunConfig()
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
        # left at its default, so the builds below check only what runs
        if key in unused:
            violations.append(f"key {key!r} is not used by {unused[key]}")
            continue
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except (TypeError, ValueError) as exc:
            violations.append(f"bad value for {key!r}: {exc}")

    def attempt(build, *args, prefix=""):
        try:
            return build(*args)
        except ValueError as exc:
            violations.append(f"{prefix}{exc}")

    tgrids = [attempt(timegrid.time_grid, cfg.t_final, m, gamma)
              for m in cfg.sweep_m or [cfg.m] for gamma in cfg.grids or [cfg.gamma]]
    # a beta out of range is reported once, not once per time grid
    betas = [beta for beta in cfg.betas or [cfg.beta] if attempt(uniform_coeffs, beta)]
    for tgrid in filter(None, tgrids):
        for beta in betas:
            attempt(step_weights, tgrid, beta)
    if cfg.example in PROBLEMS:
        problem = PROBLEMS[cfg.example](T=cfg.t_final)
        sizes = [(n, n) for n in cfg.sweep_n or ()] or [(cfg.nx, cfg.resolved_ny())]
        for nx, ny in sizes:
            attempt(problem.space_grid, nx, ny)
    else:
        violations.append(f"unknown example {cfg.example!r}; "
                          f"choices: {sorted(PROBLEMS)}")
    for key, label in (("sweep_m", "M"), ("sweep_n", "N")):
        if getattr(cfg, key) is not None:
            attempt(analysis._check_doubling, getattr(cfg, key), label,
                    prefix=f"bad value for {key!r}: ")
    for key, label_of in (("betas", _beta_label), ("grids", _grid_label)):
        values = getattr(cfg, key)
        if values == []:
            violations.append(f"bad value for {key!r}: the list is empty")
        # each entry names its own table files, which a repeat would overwrite
        labels = [label_of(value) for value in values or ()]
        violations += [f"key {key!r} repeats the output label {label!r}"
                       for i, label in enumerate(labels) if label in labels[i + 1:]]
    violations += _output_violations(Path(cfg.output), made=True)
    if violations:
        raise ConfigError(violations)
    return cfg


def _output_violations(directory: Path, made: bool) -> list[str]:
    """The 'output' violation of writing into ``directory``, if any: an
    existing path that is not a directory where it or a parent should be,
    or, when the command does not make ``directory`` (``made`` false), a
    level of it that does not exist."""
    for path in (directory, *directory.parents):
        # a dangling symlink exists for mkdir too, and blocks it
        if path.is_symlink() or path.exists():
            if not path.is_dir():
                return [f"bad value for 'output': {path} is not a directory"]
            return []
        if not made:
            return [f"bad value for 'output': {path} does not exist"]
    return []


def cmd_run(cfg: RunConfig) -> int:
    problem = PROBLEMS[cfg.example](T=cfg.t_final)
    sgrid = problem.space_grid(cfg.nx, cfg.resolved_ny())
    tgrid = timegrid.time_grid(cfg.t_final, cfg.m, cfg.gamma)
    header = [f"config={cfg.hash()}"]

    u, report = integrate(problem, tgrid, sgrid, cfg.beta)
    exact = analysis.exact_final_field(problem, sgrid, tgrid.T)
    linf = analysis.linf_error(u, exact)
    l2 = analysis.l2_error(u, exact, sgrid)
    # made only now, so that a run that fails leaves no directory
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    field_to_csv(u, sgrid, out / "field.csv", header_lines=header)
    report.to_csv(out / "report.csv", header_lines=header)
    with open(out / "errors.csv", "w") as fh:
        fh.write("".join(f"# {line}\n" for line in header))
        fh.write("Linf,L2\n")
        fh.write(f"{linf!r},{l2!r}\n")
    print(f"{cfg.example}: M={tgrid.M} N={cfg.nx}x{cfg.resolved_ny()} "
          f"beta={cfg.beta:.6g} {tgrid.kind}: Linf={linf:.6e} L2={l2:.6e}")
    return 0


def _digits(value: float) -> str:
    """The short ``:g`` text of ``value`` if it reads back to it, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _beta_label(beta: float) -> str:
    for name, value in _SYMBOLIC.items():
        if beta == value:
            return name
    return _digits(beta)


def _grid_label(gamma: float | None) -> str:
    return "uniform" if gamma is None else f"gamma{_digits(gamma)}"


def cmd_convergence(cfg: RunConfig) -> int:
    problem = PROBLEMS[cfg.example](T=cfg.t_final)
    betas = cfg.betas if cfg.betas is not None else [cfg.beta]
    grids = cfg.grids if cfg.grids is not None else [cfg.gamma]
    header = [f"config={cfg.hash()}"]
    # one sweep per grid, each returning a table per beta
    sweeps = [analysis.temporal_sweep(problem, betas, cfg.sweep_m, cfg.nx,
                                      cfg.resolved_ny(), gamma=gamma)
              if cfg.sweep_m is not None else
              analysis.spatial_sweep(problem, betas, cfg.sweep_n, cfg.m, gamma=gamma)
              for gamma in grids]
    # made only now, so that a sweep that fails leaves no directory
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    for beta, tables in zip(betas, zip(*sweeps)):
        for gamma, table in zip(grids, tables):
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
        kind = "nodes"
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
        # the dump writes one file into a directory it does not make
        path = Path(output)
        violations = ([f"bad value for 'output': {path} is a directory"]
                      if path.is_dir() else _output_violations(path.parent, made=False))
        if violations:
            raise ConfigError(violations)
        path.write_text(text)
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
        cfg = parse_config(args.command, args.config, _overrides(args))
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
