"""Per-step SPD solves of (sigma*I - kappa*L) x = r.

L is the (negative definite) discrete Laplacian, so the shifted operator
is symmetric positive definite for sigma, kappa > 0. The workhorse is a
matrix-free conjugate gradient iteration that applies the operator on
its own buffers; a solve that misses its tolerance raises
``SolveFailure``, which stops the run. An exact solve in the sine basis,
where the operator is diagonal, backs it as an oracle.
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
    laplacian_eigenvalues,
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

    def _shift(self, v: np.ndarray, lap: np.ndarray, work: np.ndarray) -> np.ndarray:
        """sigma * v - kappa * lap into ``lap`` (lap = L v), sigma * v into ``work``."""
        lap *= self.kappa
        sigma_v = np.multiply(v, self.sigma, work)
        return np.subtract(sigma_v, lap, lap)


class SolveFailure(RuntimeError):
    """CG missed the tolerance within max_iter or met a non-finite value."""


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)


def cg_solve(op: ShiftedOperator, rhs: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None, x0: np.ndarray | None = None,
             lap_x0: np.ndarray | None = None) -> CGResult:
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
        Warm start (default zero).
    lap_x0 : ndarray, optional
        ``apply_laplacian(x0)``, when the caller has it already; the
        initial residual then takes it instead of running the stencil.
        It is read, never written. Needs ``x0``.

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
    if lap_x0 is not None and x0 is None:
        raise ValueError("lap_x0 needs the warm start x0 it was taken of")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iter is None:
        max_iter = 10 * (op.grid.nx + op.grid.ny)

    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(rhs), iterations=0, residuals=[0.0])

    if not math.isfinite(b_norm):
        raise SolveFailure(f"CG right-hand side is not finite (norm {b_norm})")
    x = np.zeros_like(rhs) if x0 is None else check_field(x0, op.grid).copy()
    # work buffers and the stencil's plan for the whole solve: an
    # iteration allocates nothing and builds no views (the ufuncs take
    # their output positionally, as in the stencil)
    p, q, w = np.empty_like(rhs), np.empty_like(rhs), np.empty_like(rhs)
    plan = _laplacian_plan(p, op.grid, q, w)
    # L x goes into q, from the caller or through p, so that one plan
    # serves the initial residual too
    if lap_x0 is None:
        np.copyto(p, x)
        _stencil(plan)
    else:
        np.copyto(q, check_field(lap_x0, op.grid))
    r = rhs - op._shift(x, q, w)
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
        op._shift(p, _stencil(plan), w)
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

    The name is older than the method: ``perfbench/tracer.py`` wraps
    ``fisherkpp.stepper.direct_solve_small`` by name, so it stays until
    that binding goes.
    """
    rhs = check_field(rhs, op.grid)
    shift = op.sigma - op.kappa * laplacian_eigenvalues(op.grid)
    return from_sine(to_sine(rhs, op.grid) / shift, op.grid)
