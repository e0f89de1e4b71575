"""Error norms, observed orders, and refinement sweeps.

Errors are measured against the exact solution at the final time only,
over the interior nodes. Sweeps refine one axis at a time (the step count
M or the per-axis cell count N) by factors of two and tabulate the
observed orders log2(err_coarse / err_fine) between adjacent rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    meta: dict

    @classmethod
    def from_errors(cls, axis: str, params, errors, meta: dict) -> ConvergenceTable:
        """Rows from ``errors``, one (Linf, L2) pair per param; each row
        after the first has its observed orders against the one before. An
        order stays blank, as on the first row, where either of its two
        errors is 0: the ratio is undefined."""
        rows, prev = [], (None, None)
        for p, (linf, l2) in zip(params, errors):
            orders = [None if a is None or 0.0 in (a, b) else observed_order(a, b)
                      for a, b in zip(prev, (linf, l2))]
            rows.append(ConvergenceRow(p, linf, l2, *orders))
            prev = linf, l2
        return cls(axis, rows, meta)

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
        """log2(param) vs log10(error) series plus a slope-2 reference; an
        error of 0 writes -inf."""
        anchor = self.rows[0]

        def log10(v):
            return math.log10(v) if v > 0.0 else -math.inf

        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("log2_param,log10_Linf,log10_L2,log10_slope2_ref\n")
            for r in self.rows:
                ref = anchor.linf * (anchor.param / r.param) ** 2
                fh.write(
                    f"{math.log2(r.param):.6f},{log10(r.linf):.8f},"
                    f"{log10(r.l2):.8f},{log10(ref):.8f}\n"
                )


def exact_final_field(problem: ProblemSpec, grid: SpaceGrid, t: float) -> np.ndarray:
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    return eval_interior(problem.exact, grid, t=t)


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


def _sweep(problem, betas, gamma, axis, params, grids, **meta):
    """One table per beta: integrate every beta on ``grids(p)``, a (time
    grid, space grid) pair built once for each refinement value p, and
    tabulate the errors against the exact field. u^1 does not depend on
    beta, so the first beta starts each pair and the others reuse it."""
    errors = [[] for _ in betas]
    for p in params:
        tgrid, sgrid = grids(p)
        starts = {}
        for beta, beta_errors in zip(betas, errors):
            u, _ = integrate(problem, tgrid, sgrid, beta, starts)
            exact = exact_final_field(problem, sgrid, tgrid.T)
            beta_errors.append((linf_error(u, exact), l2_error(u, exact, sgrid)))
    meta = {"axis": axis, "example": problem.name,
            "grid": "uniform" if gamma is None else f"gamma={gamma:g}", **meta}
    return [ConvergenceTable.from_errors(axis, params, beta_errors,
                                         {**meta, "beta": f"{beta:.12g}"})
            for beta, beta_errors in zip(betas, errors)]


def temporal_sweep(problem: ProblemSpec, betas, m_values, nx: int,
                   ny: int | None = None,
                   gamma: float | None = None) -> list[ConvergenceTable]:
    """Refine the step count M at fixed spatial resolution, one table per
    beta in ``betas``."""
    m_values = _check_doubling(m_values, "M")
    ny = nx if ny is None else ny
    sgrid = problem.space_grid(nx, ny)
    return _sweep(problem, betas, gamma, "temporal", m_values,
                  lambda m: (time_grid(problem.T, m, gamma), sgrid), nx=nx, ny=ny)


def spatial_sweep(problem: ProblemSpec, betas, n_values, m_steps: int,
                  gamma: float | None = None) -> list[ConvergenceTable]:
    """Refine the spatial resolution N = Nx = Ny at fixed step count M, one
    table per beta in ``betas``.

    M must be large enough that the temporal error is subdominant.
    """
    n_values = _check_doubling(n_values, "N")
    tgrid = time_grid(problem.T, m_steps, gamma)
    return _sweep(problem, betas, gamma, "spatial", n_values,
                  lambda n: (tgrid, problem.space_grid(n, n)), m=m_steps)
