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

# uniform_coeffs and direct_solve_small are unused here but stay bound:
# perfbench/tracer.py wraps fisherkpp.stepper.uniform_coeffs and
# fisherkpp.stepper.direct_solve_small by name
from .coeffs import StepCoefficients, nonuniform_coeffs, uniform_coeffs  # noqa: F401
from .linsolve import CGResult, ShiftedOperator, cg_solve, direct_solve_small  # noqa: F401
from .problems import ProblemSpec, f_eval, source_at_shifted_time
from .spatial import SpaceGrid, apply_laplacian, boundary_contribution, eval_interior
from .timegrid import TimeGrid


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
    if not t1 > t0:
        raise ValueError(f"starter interval must be forward in time: ({t0}, {t1})")
    failed = f"starter integration failed on [{t0}, {t1}]"
    try:
        sol = solve_ivp(
            mol_rhs(problem, sgrid), (t0, t1), np.asarray(u0, dtype=float),
            method="RK45", rtol=rtol, atol=atol,
        )
    except Exception as exc:
        raise InitializationError(failed) from exc
    if not sol.success:
        raise InitializationError(f"{failed}: {sol.message}")
    return sol.y[:, -1]


def bdf_imex_step(u_prev: np.ndarray, u_curr: np.ndarray, t_curr: float,
                  t_next: float, coeffs: StepCoefficients, problem: ProblemSpec,
                  sgrid: SpaceGrid, tol: float = 1e-10
                  ) -> tuple[np.ndarray, CGResult]:
    """One implicit-explicit step from t_curr to t_next.

    Returns u^{n+1} and the CG result of its solve, warm-started from
    u^n to relative residual ``tol``.
    """
    expected = t_curr + coeffs.beta * (t_next - t_curr)
    if abs(coeffs.t_eval - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(
            f"coefficients evaluate at t={coeffs.t_eval!r} but the step from "
            f"t={t_curr!r} to t={t_next!r} expects t={expected!r}"
        )
    a0, a1, a2 = coeffs.a
    b0, b1 = coeffs.b
    c0, c1 = coeffs.c
    D, K = problem.D, problem.K

    rhs = -a1 * u_curr - a0 * u_prev
    rhs += D * b0 * (
        apply_laplacian(u_curr, sgrid)
        + boundary_contribution(problem.boundary, t_curr, sgrid)
    )
    rhs += D * b1 * boundary_contribution(problem.boundary, t_next, sgrid)
    if K != 0.0:
        rhs += K * f_eval(c1 * u_curr + c0 * u_prev, problem.nonlinearity)
    rhs += source_at_shifted_time(problem, coeffs, sgrid)

    op = ShiftedOperator(sigma=a2, kappa=D * b1, grid=sgrid)
    result = cg_solve(op, rhs, tol=tol, x0=u_curr)
    return result.x, result


def integrate(problem: ProblemSpec, tgrid: TimeGrid, sgrid: SpaceGrid,
              beta: float, tol: float = 1e-10) -> tuple[np.ndarray, RunReport]:
    """March from the initial data to t = T.

    Parameters
    ----------
    problem, tgrid, sgrid : problem instance and discretization.
    beta : float
        Shift parameter, > 1.
    tol : float
        Relative residual target of each step's CG solve, in (0, 1).

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
    nodes = tgrid.nodes
    u_prev = eval_interior(problem.initial, sgrid)
    u_curr = rk_init(problem, sgrid, nodes[0], nodes[1], u_prev)

    report = RunReport()
    for n in range(1, tgrid.M):
        t_step = time.perf_counter()
        try:
            cf = nonuniform_coeffs(nodes[n - 1], nodes[n], nodes[n + 1], beta)
            u_next, solve = bdf_imex_step(
                u_prev, u_curr, nodes[n], nodes[n + 1], cf, problem, sgrid, tol
            )
            if not np.isfinite(u_next).all():
                raise FloatingPointError("the new field is not finite")
        except Exception as exc:
            raise RuntimeError(f"step {n + 1} (t={nodes[n + 1]:g}) failed") from exc
        report.steps.append(StepRecord(
            step=n + 1, t=float(nodes[n + 1]), cg_iters=solve.iterations,
            residual=solve.residuals[-1],
            wall_ms=1e3 * (time.perf_counter() - t_step),
        ))
        u_prev, u_curr = u_curr, u_next
    return u_curr, report
