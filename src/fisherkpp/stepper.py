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
diffusion exactly in the sine basis on a stiff one. The Dormand-Prince
integrator is this module's own and follows scipy's ``RK45`` operation
by operation, so no run imports ``scipy.integrate``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# uniform_coeffs is unused here but stays bound: perfbench/tracer.py
# wraps fisherkpp.stepper.uniform_coeffs by name
from .coeffs import CoefficientError, StepCoefficients, nonuniform_coeffs
from .coeffs import uniform_coeffs  # noqa: F401
from .linsolve import CGResult, ShiftedOperator, cg_solve, direct_solve_small
from .problems import ProblemSpec, f_eval, source_at_shifted_time
from .spatial import (
    SpaceGrid,
    apply_laplacian,
    boundary_contribution,
    eval_interior,
    from_sine,
    to_sine,
)
from .timegrid import TimeGrid

# Start intervals whose stiffness D * 4 (1/hx^2 + 1/hy^2) * (t1 - t0)
# exceeds this go to ETDRK4, the rest to DP5(4). DP5(4) is stability-bound
# on a stiff interval, with RHS evaluations growing in proportion to the
# stiffness, while the substeps ETDRK4 needs are set by the accuracy of
# the forcing alone. Measured crossover (warm calls on one thread of a
# shared 2-core x86-64 host, the manufactured problem at N = 32, 48, 64,
# two passes): at a stiffness of 40, DP5(4) took 0.44-1.27x the time of
# ETDRK4; at 50, 0.95-2.5x; at 200, 1.9-4.9x.
# On the wave problem at N = 160, ETDRK4 was 6x slower at every
# stiffness from 5 to 20.
ETD_STIFFNESS = 50.0
# ETDRK4 raises its substep count up to this cap before giving up
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

    ``nfev`` counts right-hand-side evaluations (DP5) or stage
    evaluations (ETDRK4), an ETDRK4 stage being one reaction evaluation
    with an inverse and a forward sine transform; ``levels`` are the
    substep counts ETDRK4 marched, in order, the last one giving the
    result, and ``estimate`` its final error estimate. Both stay None
    for DP5.
    """

    method: str
    nfev: int
    levels: tuple[int, ...] | None = None
    estimate: float | None = None

    def header(self) -> str:
        line = f"starter={self.method} nfev={self.nfev}"
        if self.levels is not None:
            line += (f" levels={','.join(map(str, self.levels))}"
                     f" estimate={self.estimate:.3e}")
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


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): stage nodes C, stage weights A, fifth-order weights B, and error
# weights E (B minus the embedded fourth-order weights, over all seven stages
# including the first-same-as-last one)
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


@dataclass(frozen=True)
class DP54Result:
    """The state ``y`` reached, and ``nfev`` right-hand-side evaluations."""

    y: np.ndarray
    nfev: int


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, tol) -> DP54Result:
    """Adaptive Dormand-Prince 5(4) on y' = fun(t, y) over t_span = (t0, t1).

    The step control of Hairer, Norsett & Wanner, Solving ODEs I, II.4:
    the first step from their initial-step heuristic, the weighted RMS
    error of the embedded pair at rtol = atol = ``tol``, safety 0.9, step
    factors in [0.2, 10] and no growth right after a rejection. Operations
    follow scipy's ``RK45`` in order, so this gives its bits and its
    ``nfev``; where ``RK45`` reports a step below 10 float spacings, this
    raises ``FloatingPointError``. Requires t1 > t0.
    """
    t, t1 = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("the initial state is not finite")
    f = fun(t, y)
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t1 - t)
    nfev = 2
    K = np.empty((7, y.size))
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # catches NaN too, from a right-hand side that is not finite
            if not h_abs >= min_step:
                raise FloatingPointError(
                    f"step size {h_abs:.3e} fell below 10 float spacings at "
                    f"t={float(t)!r} after {nfev} right-hand-side evaluations")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return DP54Result(y, nfev)


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


def _check_interval(t0: float, t1: float) -> str:
    if not t1 > t0:
        raise ValueError(f"starter interval must be forward in time: ({t0}, {t1})")
    return f"starter integration failed on [{t0}, {t1}]"


def rk_init(problem: ProblemSpec, sgrid: SpaceGrid, t0: float, t1: float,
            u0: np.ndarray) -> tuple[np.ndarray, StarterRecord]:
    """Advance u0 from t0 to t1 with the Dormand-Prince 5(4) pair.

    Produces the second history level on a non-stiff start interval.
    Its tolerance, rtol = atol = 1e-10, keeps the starter error
    negligible against the scheme error. A failure raises
    ``InitializationError`` with the cause chained.
    """
    failed = _check_interval(t0, t1)
    try:
        sol = solve_ivp(mol_rhs(problem, sgrid), (t0, t1), u0, 1e-10)
    except Exception as exc:
        raise InitializationError(failed) from exc
    return sol.y, StarterRecord("dp54", nfev=sol.nfev)


def phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2, phi_3 of real z <= 0, elementwise.

    phi_k(z) = sum_j z^j / (j + k)!. Where |z| < 1 the closed forms
    cancel, so a 20-term Taylor sum gives phi_3 there, and phi_2 =
    z phi_3 + 1/2, phi_1 = z phi_2 + 1 follow from it. Elsewhere phi_1 =
    expm1(z) / z and phi_{k+1} = (phi_k - 1/k!) / z lose at most a few ulps.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    zs = z[small]
    zl = np.where(small, -1.0, z)
    phi1 = np.expm1(zl) / zl
    phi2 = (phi1 - 1.0) / zl
    phi3 = (phi2 - 0.5) / zl
    # Horner sum of z^j / (j + 3)! for j < 20, on the small entries only
    taylor = np.full_like(zs, 1.0 / math.factorial(22))
    for j in range(18, -1, -1):
        taylor = taylor * zs + 1.0 / math.factorial(j + 3)
    phi3[small] = taylor
    taylor = taylor * zs + 0.5
    phi2[small] = taylor
    phi1[small] = taylor * zs + 1.0
    return phi1, phi2, phi3


def etd_init(problem: ProblemSpec, sgrid: SpaceGrid, t0: float, t1: float,
             u0: np.ndarray) -> tuple[np.ndarray, StarterRecord]:
    """Advance u0 from t0 to t1 with ETDRK4 in the sine basis.

    The linear part D * L is diagonal in the type-I sine basis
    (``sgrid.laplacian_eigenvalues``) and integrated exactly; the rest of
    the method-of-lines right-hand side enters through the Cox-Matthews
    ETDRK4 stages. It splits into data that does not depend on u, D times
    the Dirichlet lifting plus the source, sampled once per stage time
    t0 + k h / 2, and the reaction, evaluated at each stage. The stage at
    (t0, u0) is the same for every substep count and is evaluated once.

    The start doubles through the probe counts 1, 2, 4, each new count m
    paired with the count n marched before it. With r = m / n, the
    Richardson estimate of the fourth-order result is
    E_m = |v_m - v_n| / (r**4 - 1), and once it is at most
    1e-9 * max(1, max|v_m|) the extrapolated v_m + (v_m - v_n) / (r**4 - 1)
    is returned. The probe measures the order q = min(4, log2(E_2 / E_4))
    at which the estimate falls. If q is at least 3.5, a miss at 4 jumps
    to the smallest count m > 4 with E_4 (4 / m)**q at most the target
    and pairs it with 4. Below 3.5, an order that does not round to
    ETDRK4's 4, the start is in the order-reduced regime of stiff problems
    (Hochbruck & Ostermann, SIAM J. Numer. Anal. 43, 2005), where a wide
    pair's fourth-order estimate understates the error: on the wave start
    at N = 512, M = 2, q = 2.86, the pair (4, 32) estimates 8.8e-10 where
    the error is 1.3e-8. Every other miss doubles. No count goes past
    ``ETD_MAX_SUBSTEPS``. On the ``mms-starter`` interval (N = 48,
    [0, 1/6]) the estimates at 2 and 4 substeps, 5.8e-7 and 3.7e-8, give
    q = 3.98 and the pair (4, 10): 65 stages. The record's ``nfev``
    counts stage evaluations, each one reaction evaluation with an
    inverse and a forward sine transform: the shared first stage, then
    4n - 1 for each count n marched.

    Raises
    ------
    InitializationError
        When the data or the reaction raises or the result is not finite
        (the cause is chained), or when ``ETD_MAX_SUBSTEPS`` substeps
        miss the estimate.
    """
    failed = _check_interval(t0, t1)
    lam = problem.D * sgrid.laplacian_eigenvalues

    def data(t):
        out = problem.D * boundary_contribution(problem.boundary, t, sgrid)
        if problem.source is not None:
            out += eval_interior(problem.source, sgrid, t=t)
        return out

    def n_hat(g, v):
        """Sine coefficients of the data g plus the reaction at v."""
        if problem.K != 0.0:
            g = g + problem.K * f_eval(from_sine(v, sgrid), problem.nonlinearity)
        return to_sine(g, sgrid)

    v0 = to_sine(np.asarray(u0, dtype=float), sgrid)

    def march(n):
        """v0 advanced by n substeps, back on the grid."""
        h = (t1 - t0) / n
        z = h * lam
        e, e2 = np.exp(z), np.exp(z / 2)
        p1, p2, p3 = phi_functions(z)
        # (h / 2) phi_1(z / 2), from e^z - 1 = (e^(z/2) - 1)(e^(z/2) + 1)
        q = h * p1 / (e2 + 1.0)
        f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        f2 = h * 2.0 * (p2 - 2.0 * p3)
        f3 = h * (4.0 * p3 - p2)
        v, nv = v0, nv0
        for m in range(n):
            # t + h / 2 serves stages 2 and 3, t + h stage 4 and the next
            # substep's stage 1
            g_mid = data(t0 + (2 * m + 1) * h / 2)
            g_end = data(t0 + (2 * m + 2) * h / 2)
            if m:
                nv = n_hat(g_start, v)
            e2v = e2 * v
            a = e2v + q * nv
            na = n_hat(g_mid, a)
            b = e2v + q * na
            nb = n_hat(g_mid, b)
            c = e2 * a + q * (2.0 * nb - nv)
            nc = n_hat(g_end, c)
            v = e * v + f1 * nv + f2 * (na + nb) + f3 * nc
            g_start = g_end
        u = from_sine(v, sgrid)
        if not np.isfinite(u).all():
            raise FloatingPointError(f"the field is not finite after {n} substeps")
        return u

    levels = [1]
    try:
        nv0 = n_hat(data(t0), v0)
        coarse = march(1)
        n, m = 1, 2
        while m > n:
            levels.append(m)
            fine = march(m)
            delta = (fine - coarse) / ((m / n) ** 4 - 1.0)
            estimate = float(np.abs(delta).max())
            target = 1e-9 * max(1.0, float(np.abs(fine).max()))
            if estimate <= target:
                nfev = 1 + sum(4 * k - 1 for k in levels)
                return fine + delta, StarterRecord(
                    "etdrk4", nfev=nfev, levels=tuple(levels), estimate=estimate)
            coarse, n, m = fine, m, 2 * m
            if n == 2:
                # one more doubling measures the order of the estimate
                probe = estimate
            elif n == 4:
                q = min(4.0, math.log2(probe / estimate))
                # an order that does not round to 4 is ETDRK4's order
                # reduction, where the fourth-order estimate of a wide
                # pair understates the error: such a start doubles
                if q >= 3.5:
                    # the smallest count predicted to meet the target at
                    # the measured order
                    m = n + 1
                    while m < ETD_MAX_SUBSTEPS and estimate * (n / m) ** q > target:
                        m += 1
            m = min(m, ETD_MAX_SUBSTEPS)
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


def step_weights(tgrid: TimeGrid, beta: float) -> list[StepCoefficients]:
    """The weights of the M - 1 steps of ``tgrid`` at shift ``beta``: row
    n - 1 is ``nonuniform_coeffs`` of the step's triple (t_{n-1}, t_n, t_{n+1}).

    Raises a ``CoefficientError`` naming beta, the first step whose weights
    cannot be formed and its end time, with the cause chained.
    """
    nodes = tgrid.nodes.tolist()  # floats: an overflow gives inf, not a numpy warning
    rows = []
    for n in range(1, tgrid.M):
        try:
            rows.append(nonuniform_coeffs(*nodes[n - 1:n + 2], beta))
        except CoefficientError as exc:
            raise CoefficientError(
                f"beta={beta:g} step {n + 1} (t={nodes[n + 1]:g}): {exc}") from exc
    return rows


def bdf_imex_step(u_prev: np.ndarray, u_curr: np.ndarray, coeffs: StepCoefficients,
                  liftings: tuple[np.ndarray, np.ndarray], problem: ProblemSpec,
                  sgrid: SpaceGrid, sine: bool) -> tuple[np.ndarray, CGResult]:
    """One implicit-explicit step from t_n to t_{n+1}.

    ``coeffs`` are the step's weights and shifted time t*, its row of
    ``step_weights``. ``liftings`` holds the Dirichlet liftings bc_n and
    bc_{n+1} at t_n and t_{n+1}, which the step reads and never writes.
    A problem without a source adds no source term. Returns u^{n+1} and
    the result of its one solve call. With ``sine`` that call is
    ``direct_solve_small``, exact in the sine basis and checked to
    ``linsolve.TOL``: 0 iterations and the residual. Otherwise it is
    ``cg_solve``, warm-started from u^n.
    """
    bc_curr, bc_next = liftings
    a0, a1, a2 = coeffs.a
    b0, b1 = coeffs.b
    c0, c1 = coeffs.c
    D, K = problem.D, problem.K

    rhs = (-a1*u_curr - a0*u_prev + D*b0*(apply_laplacian(u_curr, sgrid) + bc_curr)
           + D*b1*bc_next)
    if K != 0.0:
        rhs += K * f_eval(c1*u_curr + c0*u_prev, problem.nonlinearity)
    if problem.source is not None:
        rhs += source_at_shifted_time(problem, coeffs.t_eval, sgrid)

    op = ShiftedOperator(sigma=a2, kappa=D * b1, grid=sgrid)
    result = direct_solve_small(op, rhs) if sine else cg_solve(op, rhs, x0=u_curr)
    return result.x, result


# the start and every step check their fields for finiteness, so numpy's
# floating-point warnings would only repeat those checks, and a warning
# made an error would cut them short with a cause of its own
@np.errstate(all="ignore")
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

    The solve follows the record of the start made or reused: every step
    of a run whose start ran ETDRK4, which ``start_level`` picks on a
    stiff start interval, solves exactly in the sine basis, whose
    transforms the start has loaded; every step of a run that starts with
    DP5(4) solves with CG, which loads no scipy. A sine step reports 0 CG
    iterations and the residual ||rhs - op x||_2 of its solve.

    Returns
    -------
    (u_final, RunReport)
        The interior field at t = T, the starter record and per-step
        solver diagnostics.

    Raises
    ------
    CoefficientError
        From ``step_weights``, before the start.
    RuntimeError
        Naming the step and its end time when that step's solve or its
        result fail; the cause is chained. A non-finite field counts as a
        failure.
    """
    weights = step_weights(tgrid, beta)
    nodes = tgrid.nodes.tolist()
    u_prev = eval_interior(problem.initial, sgrid)
    key = (problem, sgrid, nodes[0], nodes[1])
    if starts is not None and key in starts:
        u_curr, starter = starts[key]
    else:
        u_curr, starter = start_level(problem, sgrid, nodes[0], nodes[1], u_prev)
        if starts is not None:
            u_curr.setflags(write=False)
            starts[key] = u_curr, starter

    sine = starter.method == "etdrk4"
    report = RunReport(starter)
    # each step hands its t_{n+1} lifting on to the next as its t_n one
    bc_next = boundary_contribution(problem.boundary, nodes[1], sgrid)
    for n in range(1, tgrid.M):
        t_step = time.perf_counter()
        try:
            bc_curr = bc_next
            bc_next = boundary_contribution(problem.boundary, nodes[n + 1], sgrid)
            u_next, solve = bdf_imex_step(u_prev, u_curr, weights[n - 1],
                                          (bc_curr, bc_next), problem, sgrid, sine)
            if not np.isfinite(u_next).all():
                raise FloatingPointError("the new field is not finite")
        except Exception as exc:
            raise RuntimeError(f"step {n + 1} (t={nodes[n + 1]:g}) failed") from exc
        report.steps.append(StepRecord(
            step=n + 1, t=nodes[n + 1], cg_iters=solve.iterations,
            residual=solve.residual,
            wall_ms=1e3 * (time.perf_counter() - t_step),
        ))
        u_prev, u_curr = u_curr, u_next
    return u_curr, report
