"""Per-step SPD solves of (sigma*I - kappa*L) x = r.

L is the (negative definite) discrete Laplacian, so the shifted operator
is symmetric positive definite for sigma, kappa > 0. The workhorse is a
matrix-free conjugate gradient iteration; a dense direct factorization
backs it as an oracle on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spatial import SpaceGrid, apply_laplacian, assemble_dense, check_field


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

    def apply(self, v: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
        """sigma * v - kappa * L v, in ``out`` with ``work`` as scratch.

        The buffers follow ``apply_laplacian``: float fields disjoint
        from ``v`` and from each other, allocated when not given.
        """
        out = apply_laplacian(v, self.grid, out=out, work=work)
        out *= self.kappa
        sigma_v = np.multiply(v, self.sigma, work)
        return np.subtract(sigma_v, out, out)

    def as_dense(self) -> np.ndarray:
        lap = assemble_dense(self.grid)  # size-guarded before np.eye allocates
        return self.sigma * np.eye(lap.shape[0]) - self.kappa * lap


class SolveFailure(RuntimeError):
    """CG missed the tolerance within max_iter or met a non-finite value.

    Carries the best iterate seen and its residual norm.
    """

    def __init__(self, message, best_x, residual, iterations):
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)


def cg_solve(op: ShiftedOperator, rhs: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None, x0: np.ndarray | None = None) -> CGResult:
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

    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(rhs), iterations=0, residuals=[0.0])

    x = np.zeros_like(rhs) if x0 is None else check_field(x0, op.grid).copy()
    if not math.isfinite(b_norm):
        raise SolveFailure(f"CG right-hand side is not finite (norm {b_norm})",
                           best_x=x, residual=b_norm, iterations=0)
    # work buffers for the whole solve: each iteration allocates nothing
    # (the ufuncs take their output positionally, as in apply_laplacian)
    q, w = np.empty_like(rhs), np.empty_like(rhs)
    r = rhs - op.apply(x, out=q, work=w)
    rr = float(r @ r)
    p = r.copy()

    res = math.sqrt(rr)
    history = [res]
    # best_x None means the current iterate is the best one: the residual
    # falls on nearly every iteration, so the best iterate is kept only
    # when the residual first rises after a new best
    best_x, best_res = None, res
    k = 0
    # a NaN fails every comparison, so "not <=" keeps it in the loop to be caught
    while not res <= tol * b_norm:
        if not math.isfinite(res):
            raise SolveFailure(
                f"CG residual is not finite after {k} iterations",
                best_x=x.copy() if best_x is None else best_x,
                residual=best_res, iterations=k,
            )
        if k >= max_iter:
            raise SolveFailure(
                f"CG stalled at relative residual {res / b_norm:.3e} "
                f"after {k} iterations (target {tol:g})",
                best_x=x.copy() if best_x is None else best_x,
                residual=best_res, iterations=k,
            )
        op.apply(p, out=q, work=w)
        alpha = rr / float(p @ q)
        x += np.multiply(p, alpha, w)
        r -= np.multiply(q, alpha, w)
        rr_new = float(r @ r)
        res = math.sqrt(rr_new)
        history.append(res)
        if res < best_res:
            best_res, best_x = res, None
        elif best_x is None:
            best_x = x - alpha * p  # the previous iterate, up to rounding
        # p = r + beta * p in place: addition commutes, so the bits match
        p *= rr_new / rr
        p += r
        rr = rr_new
        k += 1
    return CGResult(x=x, iterations=k, residuals=history)


def direct_solve_small(op: ShiftedOperator, rhs: np.ndarray) -> np.ndarray:
    """Dense factorization solve; oracle on grids ``assemble_dense`` accepts."""
    rhs = check_field(rhs, op.grid)
    return np.linalg.solve(op.as_dense(), rhs)
