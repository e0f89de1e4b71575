"""Error norms, observed orders, and refinement sweeps.

Errors are measured against the exact solution at the final time only,
over the interior nodes. Sweeps refine one axis at a time (the step count
M or the per-axis cell count N) by factors of two and tabulate the
observed orders log2(err_coarse / err_fine) between adjacent rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemSpec
from .spatial import SpaceGrid, eval_interior
from .stepper import integrate
# uniform_grid and graded_grid stay bound for perfbench/tracer.py, which wraps them by name
from .timegrid import graded_grid, time_grid, uniform_grid  # noqa: F401


def linf_error(numeric: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm difference over interior nodes."""
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numeric.shape != exact.shape:
        raise ValueError(f"shape mismatch: {numeric.shape} vs {exact.shape}")
    return float(np.max(np.abs(numeric - exact)))


def l2_error(numeric: np.ndarray, exact: np.ndarray, grid: SpaceGrid) -> float:
    """Discrete L2 norm sqrt(hx*hy*sum |u - U|^2) over interior nodes."""
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numeric.shape != exact.shape or numeric.shape != (grid.n_interior,):
        raise ValueError("fields must both conform to the grid")
    diff = numeric - exact
    # scaled exactly by its largest entry's power of two: tiny squares stay nonzero
    exp = math.frexp(float(np.max(np.abs(diff))))[1]
    diff = np.ldexp(diff, -exp)
    return math.ldexp(math.sqrt(grid.hx * grid.hy * float(diff @ diff)), exp)


def observed_order(err_coarse: float, err_fine: float) -> float:
    """log2 of the error ratio under refinement by a factor of two."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        raise ValueError(
            f"order undefined for nonpositive errors ({err_coarse}, {err_fine})"
        )
    return math.log2(err_coarse / err_fine)


@dataclass(frozen=True)
class ConvergenceRow:
    param: int
    linf: float
    l2: float
    order_inf: float | None = None
    order_2: float | None = None


@dataclass
class ConvergenceTable:
    """Sweep results along one refinement axis."""

    axis: str                      # "temporal" | "spatial"
    rows: list[ConvergenceRow]
    meta: dict = field(default_factory=dict)

    def write_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            for key in sorted(self.meta):
                fh.write(f"# {key}={self.meta[key]}\n")
            fh.write("param,Linf,order_inf,L2,order_2\n")
            for r in self.rows:
                oi = "" if r.order_inf is None else f"{r.order_inf:.4f}"
                o2 = "" if r.order_2 is None else f"{r.order_2:.4f}"
                fh.write(f"{r.param},{r.linf!r},{oi},{r.l2!r},{o2}\n")

    def write_plot_data(self, path, header_lines=()) -> None:
        """log2(param) vs log10(error) series plus a slope-2 reference."""
        anchor = self.rows[0]
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("log2_param,log10_Linf,log10_L2,log10_slope2_ref\n")
            for r in self.rows:
                ref = anchor.linf * (anchor.param / r.param) ** 2
                fh.write(
                    f"{math.log2(r.param):.6f},{math.log10(r.linf):.8f},"
                    f"{math.log10(r.l2):.8f},{math.log10(ref):.8f}\n"
                )


def exact_final_field(problem: ProblemSpec, grid: SpaceGrid, t: float) -> np.ndarray:
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    return eval_interior(problem.exact, grid, t=t)


def final_errors(problem: ProblemSpec, tgrid, sgrid: SpaceGrid,
                 beta: float, starts: dict | None = None) -> tuple[float, float]:
    """Run one integration and measure (Linf, L2) against the exact field.

    ``starts`` is handed to ``integrate``, which shares start levels
    through it.
    """
    u, _ = integrate(problem, tgrid, sgrid, beta, starts)
    exact = exact_final_field(problem, sgrid, tgrid.T)
    return linf_error(u, exact), l2_error(u, exact, sgrid)


def _check_doubling(values, label):
    vals = [int(v) for v in values]
    if len(vals) < 1:
        raise ValueError(f"{label} sweep list is empty")
    for a, b in zip(vals, vals[1:]):
        if b != 2 * a:
            raise ValueError(
                f"{label} list must increase by factors of 2, got {vals}"
            )
    return vals


def _table(axis, params, errors, meta):
    rows = []
    prev = None
    for p, (linf, l2) in zip(params, errors):
        if prev is None:
            rows.append(ConvergenceRow(p, linf, l2))
        else:
            rows.append(ConvergenceRow(
                p, linf, l2,
                order_inf=observed_order(prev[0], linf),
                order_2=observed_order(prev[1], l2),
            ))
        prev = (linf, l2)
    return ConvergenceTable(axis=axis, rows=rows, meta=meta)


def _grid_label(gamma):
    return "uniform" if gamma is None else f"gamma={gamma:g}"


def temporal_sweep(problem: ProblemSpec, beta: float, m_values, nx: int,
                   ny: int | None = None, gamma: float | None = None,
                   runner=None, starts: dict | None = None) -> ConvergenceTable:
    """Refine the step count M at fixed spatial resolution.

    ``runner``, when given, replaces the integration: a callable
    m -> (linf, l2). Used for instrumentation and synthetic fixtures.
    ``starts`` lets sweeps over several betas share their start levels
    (see ``integrate``).
    """
    m_values = _check_doubling(m_values, "M")
    ny = nx if ny is None else ny
    sgrid = problem.space_grid(nx, ny)

    def one_run(m):
        if runner is not None:
            return runner(m)
        return final_errors(problem, time_grid(problem.T, m, gamma), sgrid,
                            beta, starts)

    errors = [one_run(m) for m in m_values]
    meta = {"axis": "temporal", "example": problem.name, "beta": f"{beta:.12g}",
            "grid": _grid_label(gamma), "nx": nx, "ny": ny}
    return _table("temporal", m_values, errors, meta)


def spatial_sweep(problem: ProblemSpec, beta: float, n_values, m_steps: int,
                  gamma: float | None = None,
                  runner=None, starts: dict | None = None) -> ConvergenceTable:
    """Refine the spatial resolution N = Nx = Ny at fixed step count M.

    M must be large enough that the temporal error is subdominant.
    ``runner`` and ``starts`` are as in ``temporal_sweep``.
    """
    n_values = _check_doubling(n_values, "N")

    def one_run(n):
        if runner is not None:
            return runner(n)
        return final_errors(problem, time_grid(problem.T, m_steps, gamma),
                            problem.space_grid(n, n), beta, starts)

    errors = [one_run(n) for n in n_values]
    meta = {"axis": "spatial", "example": problem.name, "beta": f"{beta:.12g}",
            "grid": _grid_label(gamma), "m": m_steps}
    return _table("spatial", n_values, errors, meta)
