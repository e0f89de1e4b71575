"""Per-step SPD solves of (sigma*I - kappa*L) x = r.

L is the (negative definite) discrete Laplacian, so the shifted operator
is symmetric positive definite for sigma > 0, kappa >= 0. Two solves
serve the steps, picked per run by ``stepper.integrate``. A run that
starts with DP5(4) uses a matrix-free conjugate gradient iteration that
applies the operator as one 5-point stencil, with weights
sigma + 2 kappa (1/hx^2 + 1/hy^2) at the centre and -kappa/hx^2,
-kappa/hy^2 at the neighbours, on its own buffers. A run whose start is
stiff, and so has loaded the sine transforms for ETDRK4, solves exactly
in the sine basis, where the operator is diagonal, and checks the
residual of that solve on the same stencil. Either solve raises
``SolveFailure`` when it misses CG's tolerance, which stops the run.
The exact solve is also the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spatial import (
    SpaceGrid,
    _laplacian_plan,
    _stencil,
    check_field,
    from_sine,
    to_sine,
)
# apply_laplacian stays bound for perfbench/tracer.py, which wraps it by name
from .spatial import apply_laplacian  # noqa: F401


@dataclass(frozen=True)
class ShiftedOperator:
    """sigma * I - kappa * L on the interior of ``grid``."""

    sigma: float
    kappa: float
    grid: SpaceGrid

    def __post_init__(self):
        if self.sigma <= 0.0 or self.kappa < 0.0:
            raise ValueError(
                f"operator must be SPD: sigma={self.sigma}, kappa={self.kappa}"
            )


class SolveFailure(RuntimeError):
    """CG missed the tolerance within max_iter or met a non-finite value."""


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)


def _norm_and_scale(rhs: np.ndarray) -> tuple[float, float]:
    """The 2-norm of ``rhs``, and the power of two by which a solve scales
    the system: 2^-e, e the exponent of max|rhs|, when the 2-norm of a
    finite ``rhs`` overflows, 1.0 otherwise."""
    # the bits of np.linalg.norm, whose np.dot warns when the sum of
    # squares overflows; np.vdot does not, so no np.errstate block is needed
    b_norm = math.sqrt(np.vdot(rhs, rhs))
    if b_norm == math.inf and np.isfinite(rhs).all():
        return b_norm, math.ldexp(1.0, -math.frexp(float(np.abs(rhs).max()))[1])
    return b_norm, 1.0


def cg_solve(op: ShiftedOperator, rhs: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None, x0: np.ndarray | None = None
             ) -> CGResult:
    """Conjugate gradients to relative residual ``tol``.

    Parameters
    ----------
    op : ShiftedOperator
        SPD operator to invert.
    rhs : ndarray
        Right-hand side on the interior nodes.
    tol : float
        Relative 2-norm residual target, in (0, 1).
    max_iter : int, optional
        Iteration cap; defaults to 10 * (Nx + Ny).
    x0 : ndarray, optional
        Warm start (default zero). The initial residual applies the
        operator to it with the same stencil as every iteration.

    Returns
    -------
    CGResult
        Solution, iterations used, and the residual-norm history
        (initial residual first, then one entry per iteration).

    Raises
    ------
    SolveFailure
        If the tolerance is not met within ``max_iter`` iterations, or the
        right-hand side or a residual is not finite.
    """
    rhs = check_field(rhs, op.grid)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iter is None:
        max_iter = 10 * (op.grid.nx + op.grid.ny)

    b_norm, s = _norm_and_scale(rhs)
    if s != 1.0:
        # solve the same system scaled: the scale is exact while sigma and
        # kappa stay normal floats, and the solution is the same, so x0
        # stays valid
        scaled = cg_solve(ShiftedOperator(op.sigma * s, op.kappa * s, op.grid),
                          rhs * s, tol, max_iter, x0)
        scaled.residuals = [r / s for r in scaled.residuals]
        return scaled
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(rhs), iterations=0, residuals=[0.0])

    if not math.isfinite(b_norm):
        raise SolveFailure(f"CG right-hand side is not finite (norm {b_norm})")
    x = np.zeros_like(rhs) if x0 is None else check_field(x0, op.grid).copy()
    # work buffers and the stencil's plan for the whole solve: an
    # iteration allocates nothing and builds no views (the ufuncs take
    # their output positionally, as in the stencil)
    p, q, w = np.empty_like(rhs), np.empty_like(rhs), np.empty_like(rhs)
    plan = _laplacian_plan(p, op.grid, q, w, op.sigma, op.kappa)
    # the operator applied to x goes into q through p, so that one plan
    # serves the initial residual too
    np.copyto(p, x)
    r = rhs - _stencil(plan)
    rr = float(r @ r)
    np.copyto(p, r)

    res = math.sqrt(rr)
    history = [res]
    k = 0
    # a NaN fails every comparison, so "not <=" keeps it in the loop to be caught
    while not res <= tol * b_norm:
        if not math.isfinite(res):
            raise SolveFailure(f"CG residual is not finite after {k} iterations")
        if k >= max_iter:
            raise SolveFailure(
                f"CG stalled at relative residual {res / b_norm:.3e} "
                f"after {k} iterations (target {tol:g})"
            )
        _stencil(plan)
        alpha = rr / float(p @ q)
        x += np.multiply(p, alpha, w)
        r -= np.multiply(q, alpha, w)
        rr_new = float(r @ r)
        res = math.sqrt(rr_new)
        history.append(res)
        # p = r + beta * p in place: addition commutes, so the bits match
        p *= rr_new / rr
        p += r
        rr = rr_new
        k += 1
    return CGResult(x=x, iterations=k, residuals=history)


def direct_solve_small(op: ShiftedOperator, rhs: np.ndarray) -> np.ndarray:
    """Exact solve on any grid: sigma - kappa * lam divides each sine mode.

    Every step of a run whose start is stiff solves with it (see
    ``stepper.integrate``), and the tests take it as their oracle. A
    finite right-hand side whose 2-norm overflows is solved scaled by
    2^-e, e the exponent of max|rhs|, as ``cg_solve`` scales it, and the
    solution is scaled back: the transforms would overflow to NaN.

    The name is older than the method: ``perfbench/tracer.py`` wraps
    ``fisherkpp.stepper.direct_solve_small`` by name, so it stays until
    that binding goes.
    """
    rhs = check_field(rhs, op.grid)
    _, s = _norm_and_scale(rhs)
    if s != 1.0:
        return direct_solve_small(op, rhs * s) / s
    shift = op.sigma - op.kappa * op.grid.laplacian_eigenvalues
    return from_sine(to_sine(rhs, op.grid) / shift, op.grid)


def sine_result(op: ShiftedOperator, rhs: np.ndarray, x: np.ndarray) -> CGResult:
    """``x``, a sine-basis solve of op x = rhs, checked to CG's tolerance.

    Returns a ``CGResult`` of 0 iterations whose one residual is
    ||rhs - op x||_2, run on the operator's own stencil plan, as CG takes
    its initial residual. A finite right-hand side whose 2-norm overflows
    is checked on the system scaled as ``cg_solve`` scales it.

    Raises
    ------
    SolveFailure
        If the residual is not finite or exceeds 1e-10 ||rhs||_2, the
        default tolerance of ``cg_solve``.
    """
    rhs = check_field(rhs, op.grid)
    b_norm, s = _norm_and_scale(rhs)
    if s != 1.0:
        scaled = sine_result(ShiftedOperator(op.sigma * s, op.kappa * s, op.grid),
                             rhs * s, x)
        scaled.residuals = [r / s for r in scaled.residuals]
        return scaled
    out, work = np.empty_like(rhs), np.empty_like(rhs)
    r = rhs - _stencil(_laplacian_plan(x, op.grid, out, work, op.sigma, op.kappa))
    res = math.sqrt(np.vdot(r, r))
    if not math.isfinite(res):
        raise SolveFailure("sine-basis solve residual is not finite")
    if not res <= 1e-10 * b_norm:
        raise SolveFailure(f"sine-basis solve missed relative residual 1e-10: "
                           f"{res / b_norm:.3e}")
    return CGResult(x=x, iterations=0, residuals=[res])
