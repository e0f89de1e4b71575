"""Time marching for the shifted-BDF2 IMEX scheme.

Each step solves

    (a2*I - D*b1*L) u^{n+1} = -a1*u^n - a0*u^{n-1}
                              + D*b0*(L u^n + bc_n) + D*b1*bc_{n+1}
                              + K*f(c1*u^n + c0*u^{n-1}) + g(t*)

where L is the interior Laplacian, bc_m the Dirichlet lifting at t_m, and
t* the shifted evaluation time. The first level u^1 comes from an adaptive
Dormand-Prince 5(4) integration of the method-of-lines system, so its
error sits far below the scheme's O(dt^2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

# uniform_coeffs is unused here but stays bound: perfbench/tracer.py wraps
# fisherkpp.stepper.uniform_coeffs by name
from .coeffs import StepCoefficients, nonuniform_coeffs, uniform_coeffs  # noqa: F401
from .linsolve import ShiftedOperator, cg_solve, direct_solve_small
from .problems import ProblemSpec, f_eval, source_at_shifted_time
from .spatial import SpaceGrid, apply_laplacian, boundary_contribution, eval_interior
from .timegrid import TimeGrid


@dataclass(frozen=True)
class SolverConfig:
    """Linear-solver selection for the implicit stage."""

    kind: str = "cg"
    tol: float = 1e-10
    max_iter: int | None = None

    def __post_init__(self):
        if self.kind not in ("cg", "direct"):
            raise ValueError(f"solver kind must be 'cg' or 'direct', got {self.kind!r}")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"solver tol must lie in (0, 1), got {self.tol}")


@dataclass
class SchemeState:
    """Two history levels and their position on the time grid."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    n: int
    tgrid: TimeGrid


@dataclass(frozen=True)
class StepStats:
    cg_iters: int
    residual: float


@dataclass
class StepRecord:
    step: int
    t: float
    cg_iters: int
    residual: float
    wall_ms: float


@dataclass
class RunReport:
    """Per-step solver diagnostics for one integration."""

    steps: list[StepRecord] = field(default_factory=list)
    init_nfev: int = 0
    total_wall_ms: float = 0.0

    def to_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("step,t_n,cg_iters,residual,wall_ms\n")
            for r in self.steps:
                fh.write(
                    f"{r.step},{r.t!r},{r.cg_iters},{r.residual!r},{r.wall_ms:.3f}\n"
                )


class InitializationError(RuntimeError):
    """The starter integration failed (step-size underflow or similar)."""


def mol_rhs(problem: ProblemSpec, sgrid: SpaceGrid):
    """Right-hand side of the method-of-lines system on interior nodes."""

    def rhs(t, u):
        out = problem.D * (
            apply_laplacian(u, sgrid)
            + boundary_contribution(problem.boundary, t, sgrid)
        )
        if problem.K != 0.0:
            out += problem.K * f_eval(u, problem.nonlinearity)
        if problem.source is not None:
            out += eval_interior(problem.source, sgrid, t=t)
        return out

    return rhs


def rk_init(problem: ProblemSpec, sgrid: SpaceGrid, t0: float, t1: float,
            u0: np.ndarray, rtol: float = 1e-10, atol: float = 1e-10) -> np.ndarray:
    """Advance u0 from t0 to t1 with the Dormand-Prince 5(4) pair.

    Used to produce the second history level before the two-step scheme
    takes over. Tolerances default to 1e-10 so the starter error is
    negligible against the scheme error.
    """
    u1, _ = _rk_init_full(problem, sgrid, t0, t1, u0, rtol, atol)
    return u1


def _rk_init_full(problem, sgrid, t0, t1, u0, rtol, atol):
    if not t1 > t0:
        raise ValueError(f"starter interval must be forward in time: ({t0}, {t1})")
    sol = solve_ivp(
        mol_rhs(problem, sgrid), (t0, t1), np.asarray(u0, dtype=float),
        method="RK45", rtol=rtol, atol=atol,
    )
    if not sol.success:
        raise InitializationError(
            f"starter integration failed on [{t0}, {t1}]: {sol.message}"
        )
    return sol.y[:, -1], sol.nfev


def bdf_imex_step(state: SchemeState, coeffs: StepCoefficients,
                  problem: ProblemSpec, sgrid: SpaceGrid,
                  solver: SolverConfig | None = None) -> tuple[np.ndarray, StepStats]:
    """One implicit-explicit step: returns (u^{n+1}, solver stats)."""
    if state.n < 1:
        raise ValueError("stepping starts at n = 1 (two history levels required)")
    solver = solver or SolverConfig()
    nodes = state.tgrid.nodes
    t_curr, t_next = nodes[state.n], nodes[state.n + 1]
    expected = t_curr + coeffs.beta * (t_next - t_curr)
    if abs(coeffs.t_eval - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(
            f"coefficients evaluate at t={coeffs.t_eval!r} but step "
            f"{state.n} expects t={expected!r}"
        )
    a0, a1, a2 = coeffs.a
    b0, b1 = coeffs.b
    c0, c1 = coeffs.c
    D, K = problem.D, problem.K

    rhs = -a1 * state.u_curr - a0 * state.u_prev
    rhs += D * b0 * (
        apply_laplacian(state.u_curr, sgrid)
        + boundary_contribution(problem.boundary, t_curr, sgrid)
    )
    rhs += D * b1 * boundary_contribution(problem.boundary, t_next, sgrid)
    if K != 0.0:
        rhs += K * f_eval(c1 * state.u_curr + c0 * state.u_prev,
                          problem.nonlinearity)
    rhs += source_at_shifted_time(problem, coeffs, sgrid)

    op = ShiftedOperator(sigma=a2, kappa=D * b1, grid=sgrid)
    if solver.kind == "direct":
        x = direct_solve_small(op, rhs)
        res = float(np.linalg.norm(rhs - op.apply(x)))
        return x, StepStats(cg_iters=0, residual=res)
    result = cg_solve(op, rhs, tol=solver.tol, max_iter=solver.max_iter,
                      x0=state.u_curr)
    return result.x, StepStats(cg_iters=result.iterations,
                               residual=result.residuals[-1])


def integrate(problem: ProblemSpec, tgrid: TimeGrid, sgrid: SpaceGrid,
              beta: float, solver: SolverConfig | None = None
              ) -> tuple[np.ndarray, RunReport]:
    """March from the initial data to t = T.

    Parameters
    ----------
    problem, tgrid, sgrid : problem instance and discretization.
    beta : float
        Shift parameter, > 1.
    solver : SolverConfig, optional
        Implicit-stage solver settings (default: CG at 1e-10).

    Returns
    -------
    (u_final, RunReport)
        The interior field at t = T and per-step solver diagnostics.

    Raises
    ------
    RuntimeError
        Naming the step and its end time when that step's coefficients,
        its solve or its result fail; the cause is chained. A non-finite
        field counts as a failure.
    """
    solver = solver or SolverConfig()

    wall0 = time.perf_counter()
    nodes = tgrid.nodes
    u_prev = eval_interior(problem.initial, sgrid)
    u_curr, init_nfev = _rk_init_full(
        problem, sgrid, nodes[0], nodes[1], u_prev, 1e-10, 1e-10
    )

    report = RunReport(init_nfev=init_nfev)
    for n in range(1, tgrid.M):
        t_step = time.perf_counter()
        try:
            cf = nonuniform_coeffs(nodes[n - 1], nodes[n], nodes[n + 1], beta)
            u_next, stats = bdf_imex_step(
                SchemeState(u_prev, u_curr, n, tgrid), cf, problem, sgrid, solver
            )
            if not np.isfinite(u_next).all():
                raise FloatingPointError("the new field is not finite")
        except Exception as exc:
            raise RuntimeError(f"step {n + 1} (t={nodes[n + 1]:g}) failed") from exc
        report.steps.append(StepRecord(
            step=n + 1, t=float(nodes[n + 1]), cg_iters=stats.cg_iters,
            residual=stats.residual,
            wall_ms=1e3 * (time.perf_counter() - t_step),
        ))
        u_prev, u_curr = u_curr, u_next
    report.total_wall_ms = 1e3 * (time.perf_counter() - wall0)
    return u_curr, report
