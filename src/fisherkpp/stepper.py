"""Time marching for the shifted-BDF2 IMEX scheme.

Each step solves

    (a2*I - D*b1*L) u^{n+1} = -a1*u^n - a0*u^{n-1}
                              + D*b0*(L u^n + bc_n) + D*b1*bc_{n+1}
                              + K*f(c1*u^n + c0*u^{n-1}) + g(t*)

where L is the interior Laplacian, bc_m the Dirichlet lifting at t_m, and
t* the shifted evaluation time. The first level u^1 comes from an
integration of the method-of-lines system whose error sits far below the
scheme's O(dt^2): adaptive Dormand-Prince 5(4) on a non-stiff start
interval, and an exponential integrator (ETDRK4) that treats the
diffusion exactly in the sine basis on a stiff one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# uniform_coeffs and direct_solve_small are unused here but stay bound:
# perfbench/tracer.py wraps fisherkpp.stepper.uniform_coeffs and
# fisherkpp.stepper.direct_solve_small by name
from .coeffs import nonuniform_coeffs, uniform_coeffs  # noqa: F401
from .linsolve import CGResult, ShiftedOperator, cg_solve, direct_solve_small  # noqa: F401
from .problems import ProblemSpec, f_eval, source_at_shifted_time
from .spatial import (
    SpaceGrid,
    apply_laplacian,
    boundary_contribution,
    eval_interior,
    from_sine,
    laplacian_eigenvalues,
    to_sine,
)
from .timegrid import TimeGrid

# Start intervals whose stiffness D * 4 (1/hx^2 + 1/hy^2) * (t1 - t0)
# exceeds this go to ETDRK4, the rest to DP5(4). DP5(4) is stability-bound
# on a stiff interval, with RHS evaluations growing in proportion to the
# stiffness, while the substeps ETDRK4 needs are set by the accuracy of
# the forcing alone. Measured crossover (warm calls on one thread of a
# 2-core x86-64 host, the manufactured problem at N = 32, 48, 64): at a
# stiffness of 40, DP5(4) took 0.6-1.6x the time of ETDRK4; at 50,
# 1.3-3.0x; at 200, 2.3-6.4x.
# On the wave problem at N = 160, ETDRK4 was 6x slower at every
# stiffness from 5 to 20.
ETD_STIFFNESS = 50.0
# ETDRK4 doubles its substep count up to this cap before giving up
ETD_MAX_SUBSTEPS = 1024


@dataclass
class StepRecord:
    step: int
    t: float
    cg_iters: int
    residual: float
    wall_ms: float


@dataclass(frozen=True)
class StarterRecord:
    """Which starter produced u^1 and the work it did.

    ``nfev`` counts right-hand-side (DP5) or forcing (ETDRK4)
    evaluations; ``substeps`` and ``estimate`` are the final substep
    count and error estimate of ETDRK4 and stay None for DP5.
    """

    method: str
    nfev: int
    substeps: int | None = None
    estimate: float | None = None

    def header(self) -> str:
        line = f"starter={self.method} nfev={self.nfev}"
        if self.substeps is not None:
            line += f" substeps={self.substeps} estimate={self.estimate:.3e}"
        return line


@dataclass
class RunReport:
    """Starter record and per-step solver diagnostics for one integration."""

    starter: StarterRecord
    steps: list[StepRecord] = field(default_factory=list)

    def to_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as fh:
            for line in (*header_lines, self.starter.header()):
                fh.write(f"# {line}\n")
            fh.write("step,t_n,cg_iters,residual,wall_ms\n")
            for r in self.steps:
                fh.write(
                    f"{r.step},{r.t!r},{r.cg_iters},{r.residual!r},{r.wall_ms:.3f}\n"
                )


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first DP5(4) start.

    scipy.integrate pulls in scipy.optimize, sparse and linalg, which a
    run that starts with ETDRK4 never uses.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class InitializationError(RuntimeError):
    """The starter integration failed (step-size underflow or similar)."""


def _add_reaction_source(problem: ProblemSpec, sgrid: SpaceGrid, t, u, out):
    if problem.K != 0.0:
        out += problem.K * f_eval(u, problem.nonlinearity)
    if problem.source is not None:
        out += eval_interior(problem.source, sgrid, t=t)
    return out


def mol_rhs(problem: ProblemSpec, sgrid: SpaceGrid):
    """Right-hand side of the method-of-lines system on interior nodes."""

    def rhs(t, u):
        out = problem.D * (
            apply_laplacian(u, sgrid)
            + boundary_contribution(problem.boundary, t, sgrid)
        )
        return _add_reaction_source(problem, sgrid, t, u, out)

    return rhs


def mol_forcing(problem: ProblemSpec, sgrid: SpaceGrid):
    """``mol_rhs`` without the interior Laplacian term D * L u."""

    def forcing(t, u):
        out = problem.D * boundary_contribution(problem.boundary, t, sgrid)
        return _add_reaction_source(problem, sgrid, t, u, out)

    return forcing


def _check_interval(t0: float, t1: float) -> str:
    if not t1 > t0:
        raise ValueError(f"starter interval must be forward in time: ({t0}, {t1})")
    return f"starter integration failed on [{t0}, {t1}]"


def rk_init(problem: ProblemSpec, sgrid: SpaceGrid, t0: float, t1: float,
            u0: np.ndarray, rtol: float = 1e-10, atol: float = 1e-10
            ) -> tuple[np.ndarray, StarterRecord]:
    """Advance u0 from t0 to t1 with the Dormand-Prince 5(4) pair.

    Produces the second history level on a non-stiff start interval, and
    serves the tests as the oracle of ``etd_init``. Tolerances default
    to 1e-10 so the starter error is negligible against the scheme error.
    """
    failed = _check_interval(t0, t1)
    try:
        sol = solve_ivp(
            mol_rhs(problem, sgrid), (t0, t1), np.asarray(u0, dtype=float),
            method="RK45", rtol=rtol, atol=atol,
        )
    except Exception as exc:
        raise InitializationError(failed) from exc
    if not sol.success:
        raise InitializationError(f"{failed}: {sol.message}")
    return sol.y[:, -1], StarterRecord("dp54", nfev=int(sol.nfev))


def phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2, phi_3 of real z <= 0, elementwise.

    phi_k(z) = sum_j z^j / (j + k)!. A 20-term Taylor sum serves |z| < 1,
    where the closed forms cancel; elsewhere phi_1 = expm1(z) / z and
    phi_{k+1} = (phi_k - 1/k!) / z lose at most a few ulps.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    zs = z[small]
    zl = np.where(small, -1.0, z)
    phis = []
    for k in (1, 2, 3):
        if k == 1:
            phi = np.expm1(zl) / zl
        else:
            phi = (phis[-1] - 1.0 / math.factorial(k - 1)) / zl
        # Horner sum of z^j / (j + k)! for j < 20, on the small entries only
        taylor = np.full_like(zs, 1.0 / math.factorial(19 + k))
        for j in range(18, -1, -1):
            taylor = taylor * zs + 1.0 / math.factorial(j + k)
        phi[small] = taylor
        phis.append(phi)
    return phis[0], phis[1], phis[2]


def etd_init(problem: ProblemSpec, sgrid: SpaceGrid, t0: float, t1: float,
             u0: np.ndarray) -> tuple[np.ndarray, StarterRecord]:
    """Advance u0 from t0 to t1 with ETDRK4 in the sine basis.

    The linear part D * L is diagonal in the type-I sine basis
    (``laplacian_eigenvalues``) and integrated exactly; the forcing
    ``mol_forcing`` enters through the Cox-Matthews ETDRK4 stages. The
    substep count doubles from 1 until the Richardson estimate
    |v_n - v_{n/2}| / 15 of the fourth-order result is at most
    1e-9 * max(1, max|v_n|); the extrapolated v_n + (v_n - v_{n/2}) / 15
    is returned.

    Raises
    ------
    InitializationError
        When the forcing raises or the result is not finite (the cause is
        chained), or when ``ETD_MAX_SUBSTEPS`` substeps miss the estimate.
    """
    failed = _check_interval(t0, t1)
    forcing = mol_forcing(problem, sgrid)
    lam = problem.D * laplacian_eigenvalues(sgrid)

    def n_hat(t, v):
        return to_sine(forcing(t, from_sine(v, sgrid)), sgrid)

    v0 = to_sine(np.asarray(u0, dtype=float), sgrid)

    def tables(z):
        return np.exp(z), phi_functions(z)

    def march(n, full):
        """n substeps, given ``tables(h * lam)`` for h = (t1 - t0) / n.

        Also returns ``tables(h * lam / 2)``, which are the full-step
        tables of 2n substeps: halving is exact in binary floating point.
        """
        h = (t1 - t0) / n
        half = tables(h * lam / 2)
        (e, (p1, p2, p3)), (e2, (half_p1, _, _)) = full, half
        q = 0.5 * h * half_p1
        f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        f2 = h * 2.0 * (p2 - 2.0 * p3)
        f3 = h * (4.0 * p3 - p2)
        v = v0
        for m in range(n):
            t = t0 + m * h
            nv = n_hat(t, v)
            a = e2 * v + q * nv
            na = n_hat(t + h / 2, a)
            b = e2 * v + q * na
            nb = n_hat(t + h / 2, b)
            c = e2 * a + q * (2.0 * nb - nv)
            nc = n_hat(t + h, c)
            v = e * v + f1 * nv + f2 * (na + nb) + f3 * nc
        u = from_sine(v, sgrid)
        if not np.isfinite(u).all():
            raise FloatingPointError(f"the field is not finite after {n} substeps")
        return u, half

    n, nfev = 1, 4
    try:
        coarse, full = march(n, tables((t1 - t0) * lam))
        while n < ETD_MAX_SUBSTEPS:
            n *= 2
            nfev += 4 * n
            fine, full = march(n, full)
            delta = (fine - coarse) / 15.0
            estimate = float(np.abs(delta).max())
            if estimate <= 1e-9 * max(1.0, float(np.abs(fine).max())):
                return fine + delta, StarterRecord(
                    "etdrk4", nfev=nfev, substeps=n, estimate=estimate)
            coarse = fine
    except Exception as exc:
        raise InitializationError(failed) from exc
    raise InitializationError(
        f"{failed}: ETDRK4 error estimate {estimate:.3e} still above target "
        f"after {n} substeps"
    )


def start_stiffness(problem: ProblemSpec, sgrid: SpaceGrid, t0: float,
                    t1: float) -> float:
    """D * 4 (1/hx^2 + 1/hy^2) * (t1 - t0): the start interval in units of
    the fastest diffusive time scale of the grid."""
    return problem.D * 4.0 * (1.0 / sgrid.hx**2 + 1.0 / sgrid.hy**2) * (t1 - t0)


def start_level(problem: ProblemSpec, sgrid: SpaceGrid, t0: float, t1: float,
                u0: np.ndarray) -> tuple[np.ndarray, StarterRecord]:
    """u^1 by ETDRK4 on a stiff start interval, by DP5(4) otherwise."""
    if start_stiffness(problem, sgrid, t0, t1) > ETD_STIFFNESS:
        return etd_init(problem, sgrid, t0, t1, u0)
    return rk_init(problem, sgrid, t0, t1, u0)


def bdf_imex_step(u_prev: np.ndarray, u_curr: np.ndarray, t_prev: float,
                  t_curr: float, t_next: float, beta: float,
                  problem: ProblemSpec, sgrid: SpaceGrid,
                  liftings: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, CGResult]:
    """One implicit-explicit step from t_curr to t_next.

    The weights and the shifted time t* = t_curr + beta * (t_next - t_curr)
    come from the node triple (t_prev, t_curr, t_next). ``liftings`` holds
    the Dirichlet liftings bc_n and bc_{n+1} at t_curr and t_next, which
    the step reads and never writes; they are evaluated when not given.
    Returns u^{n+1} and the CG result of its solve, warm-started from u^n,
    with the step's own L u^n for the initial residual, at the default
    tolerance of ``cg_solve``.
    """
    if liftings is None:
        liftings = (boundary_contribution(problem.boundary, t_curr, sgrid),
                    boundary_contribution(problem.boundary, t_next, sgrid))
    bc_curr, bc_next = liftings
    coeffs = nonuniform_coeffs(t_prev, t_curr, t_next, beta)
    a0, a1, a2 = coeffs.a
    b0, b1 = coeffs.b
    c0, c1 = coeffs.c
    D, K = problem.D, problem.K

    # the formula of the module docstring, evaluated term by term as
    # written, in one buffer with two temporaries; the second holds L u^n
    # for the solve's initial residual, so the reaction, whose explicit
    # value needs both temporaries, is evaluated before the Laplacian
    rhs = np.multiply(u_curr, -a1)
    tmp = np.multiply(u_prev, a0)
    rhs -= tmp
    lap = np.empty_like(rhs)
    if K != 0.0:
        u_explicit = np.multiply(u_curr, c1, out=tmp)
        u_explicit += np.multiply(u_prev, c0, out=lap)
        reaction = f_eval(u_explicit, problem.nonlinearity)
        reaction *= K
    apply_laplacian(u_curr, sgrid, out=lap, work=tmp)
    np.add(lap, bc_curr, tmp)
    tmp *= D * b0
    rhs += tmp
    rhs += np.multiply(bc_next, D * b1, tmp)
    if K != 0.0:
        rhs += reaction
        del reaction  # freed before the solve
    rhs += source_at_shifted_time(problem, coeffs.t_eval, sgrid)

    op = ShiftedOperator(sigma=a2, kappa=D * b1, grid=sgrid)
    result = cg_solve(op, rhs, x0=u_curr, lap_x0=lap)
    return result.x, result


def integrate(problem: ProblemSpec, tgrid: TimeGrid, sgrid: SpaceGrid,
              beta: float, starts: dict | None = None
              ) -> tuple[np.ndarray, RunReport]:
    """March from the initial data to t = T.

    Parameters
    ----------
    problem, tgrid, sgrid : problem instance and discretization.
    beta : float
        Shift parameter, > 1.
    starts : dict, optional
        Start levels shared by several integrations, such as the betas of
        a sweep: u^1 does not depend on beta. Maps (problem, sgrid, t0,
        t1) to ``start_level``'s (u^1, record), u^1 read-only. A start
        that is missing is computed here and stored.

    Returns
    -------
    (u_final, RunReport)
        The interior field at t = T, the starter record and per-step
        solver diagnostics.

    Raises
    ------
    RuntimeError
        Naming the step and its end time when that step's coefficients,
        its solve or its result fail; the cause is chained. A non-finite
        field counts as a failure.
    """
    nodes = tgrid.nodes.tolist()  # floats: an overflow gives inf, not a numpy warning
    u_prev = eval_interior(problem.initial, sgrid)
    key = (problem, sgrid, nodes[0], nodes[1])
    if starts is not None and key in starts:
        u_curr, starter = starts[key]
    else:
        u_curr, starter = start_level(problem, sgrid, nodes[0], nodes[1], u_prev)
        if starts is not None:
            u_curr.setflags(write=False)
            starts[key] = u_curr, starter

    report = RunReport(starter)
    # each step hands its t_{n+1} lifting on to the next as its t_n one
    bc_next = boundary_contribution(problem.boundary, nodes[1], sgrid)
    for n in range(1, tgrid.M):
        t_step = time.perf_counter()
        try:
            bc_curr = bc_next
            bc_next = boundary_contribution(problem.boundary, nodes[n + 1], sgrid)
            u_next, solve = bdf_imex_step(
                u_prev, u_curr, nodes[n - 1], nodes[n], nodes[n + 1], beta,
                problem, sgrid, liftings=(bc_curr, bc_next),
            )
            if not np.isfinite(u_next).all():
                raise FloatingPointError("the new field is not finite")
        except Exception as exc:
            raise RuntimeError(f"step {n + 1} (t={nodes[n + 1]:g}) failed") from exc
        report.steps.append(StepRecord(
            step=n + 1, t=nodes[n + 1], cg_iters=solve.iterations,
            residual=solve.residuals[-1],
            wall_ms=1e3 * (time.perf_counter() - t_step),
        ))
        u_prev, u_curr = u_curr, u_next
    return u_curr, report
