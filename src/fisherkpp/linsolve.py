"""Per-step SPD solves of (sigma*I - kappa*L) x = r.

L is the (negative definite) discrete Laplacian, so the shifted operator
is symmetric positive definite for sigma > 0, kappa >= 0. Two solves
serve the steps, picked per run by ``stepper.integrate`` from the
starter its start ran. A run that starts with DP5(4) uses a matrix-free
conjugate gradient iteration that applies the operator as one 5-point
stencil, with weights sigma + 2 kappa (1/hx^2 + 1/hy^2) at the centre
and -kappa/hx^2, -kappa/hy^2 at the neighbours, on its own buffers. A
run that starts with ETDRK4, and so has loaded the sine transforms,
solves with ``direct_solve_small``: one call that solves exactly in the
sine basis, where the operator is diagonal, and checks the residual of
that solve on the same stencil. Both return a ``CGResult`` and raise
``SolveFailure`` when they miss the relative residual ``TOL``, which
stops the run. The exact solve is also the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spatial import (
    SpaceGrid,
    _bind_stencil,
    check_field,
    from_sine,
    to_sine,
)
# apply_laplacian stays bound for perfbench/tracer.py, which wraps it by name
from .spatial import apply_laplacian  # noqa: F401

# relative 2-norm residual that both solves meet: ||rhs - op x|| <= TOL ||rhs||
TOL = 1e-10


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
    """A solve missed ``TOL`` (CG within its cap) or met a non-finite value."""


@dataclass
class CGResult:
    """Solution, CG iterations and final residual ||rhs - op x||_2."""

    x: np.ndarray
    iterations: int
    residual: float


def _norm_and_scale(rhs: np.ndarray) -> tuple[float, float]:
    """The 2-norm of ``rhs``, and the power of two s by which a solve
    scales it: 2^-e, e the exponent of max|rhs|, when the 2-norm of a
    finite ``rhs`` overflows, 1.0 otherwise."""
    # the bits of np.linalg.norm, whose np.dot warns when the sum of
    # squares overflows; np.vdot does not, so no np.errstate block is needed
    b_norm = math.sqrt(np.vdot(rhs, rhs))
    if b_norm == math.inf and np.isfinite(rhs).all():
        return b_norm, math.ldexp(1.0, -math.frexp(float(np.abs(rhs).max()))[1])
    return b_norm, 1.0


def _unscaled(result: CGResult, s: float) -> CGResult:
    """The result of a solve of ``rhs * s`` as that of ``rhs``."""
    return CGResult(result.x / s, result.iterations, result.residual / s)


def cg_solve(op: ShiftedOperator, rhs: np.ndarray,
             x0: np.ndarray | None = None) -> CGResult:
    """Conjugate gradients to relative residual ``TOL``.

    Parameters
    ----------
    op : ShiftedOperator
        SPD operator to invert.
    rhs : ndarray
        Right-hand side on the interior nodes. A finite one whose 2-norm
        overflows is solved as ``rhs * s`` from ``x0 * s``, s a power of
        two, and x and the residual are divided by s.
    x0 : ndarray, optional
        Warm start (default zero). The initial residual applies the
        operator to it with the same stencil as every iteration.

    Returns
    -------
    CGResult
        Solution, iterations used and the final residual norm.

    Raises
    ------
    SolveFailure
        If the tolerance is not met within 10 * (Nx + Ny) iterations, or
        the right-hand side or a residual is not finite.
    """
    rhs = check_field(rhs, op.grid)
    b_norm, s = _norm_and_scale(rhs)
    if s != 1.0:
        return _unscaled(cg_solve(op, rhs * s, None if x0 is None else x0 * s), s)
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(rhs), iterations=0, residual=0.0)

    if not math.isfinite(b_norm):
        raise SolveFailure(f"CG right-hand side is not finite (norm {b_norm})")
    x = np.zeros_like(rhs) if x0 is None else check_field(x0, op.grid).copy()
    # work buffers and the stencil bound to them for the whole solve: an
    # iteration allocates nothing and builds no views (the ufuncs take
    # their output positionally, as in the stencil)
    p, q, w = np.empty_like(rhs), np.empty_like(rhs), np.empty_like(rhs)
    stencil = _bind_stencil(p, op.grid, q, w, op.sigma, op.kappa)
    # the operator applied to x goes into q through p, so that one bound
    # stencil serves the initial residual too
    np.copyto(p, x)
    r = rhs - stencil()
    rr = float(r @ r)
    np.copyto(p, r)

    res = math.sqrt(rr)
    max_iter = 10 * (op.grid.nx + op.grid.ny)
    k = 0
    # a NaN fails every comparison, so "not <=" keeps it in the loop to be caught
    while not res <= TOL * b_norm:
        if not math.isfinite(res):
            raise SolveFailure(f"CG residual is not finite after {k} iterations")
        if k >= max_iter:
            raise SolveFailure(
                f"CG stalled at relative residual {res / b_norm:.3e} "
                f"after {k} iterations (target {TOL:g})"
            )
        stencil()
        alpha = rr / float(p @ q)
        x += np.multiply(p, alpha, w)
        r -= np.multiply(q, alpha, w)
        rr_new = float(r @ r)
        res = math.sqrt(rr_new)
        # p = r + beta * p in place: addition commutes, so the bits match
        p *= rr_new / rr
        p += r
        rr = rr_new
        k += 1
    return CGResult(x=x, iterations=k, residual=res)


def direct_solve_small(op: ShiftedOperator, rhs: np.ndarray) -> CGResult:
    """Exact solve on any grid, checked to ``TOL``.

    sigma - kappa * lam divides each sine mode. Every step of a run whose
    start ran ETDRK4 solves with it (see ``stepper.integrate``), and the
    tests take it as their oracle. A finite right-hand side whose 2-norm
    overflows is solved as ``rhs * s``, as ``cg_solve`` solves it, and x
    and the residual are divided by s: the transforms would overflow to
    NaN.

    Returns a ``CGResult`` of 0 iterations whose residual is
    ||rhs - op x||_2, run on the operator's own stencil, as CG takes its
    initial residual.

    Raises
    ------
    SolveFailure
        If the residual is not finite or exceeds ``TOL * ||rhs||_2``.

    The name is older than the method: ``perfbench/tracer.py`` wraps
    ``fisherkpp.stepper.direct_solve_small`` by name, so it stays until
    that binding goes.
    """
    rhs = check_field(rhs, op.grid)
    b_norm, s = _norm_and_scale(rhs)
    if s != 1.0:
        return _unscaled(direct_solve_small(op, rhs * s), s)
    shift = op.sigma - op.kappa * op.grid.laplacian_eigenvalues
    x = from_sine(to_sine(rhs, op.grid) / shift, op.grid)
    out, work = np.empty_like(rhs), np.empty_like(rhs)
    r = rhs - _bind_stencil(x, op.grid, out, work, op.sigma, op.kappa)()
    res = math.sqrt(np.vdot(r, r))
    if not math.isfinite(res):
        raise SolveFailure("sine-basis solve residual is not finite")
    if not res <= TOL * b_norm:
        raise SolveFailure(f"sine-basis solve missed relative residual {TOL:g}: "
                           f"{res / b_norm:.3e}")
    return CGResult(x=x, iterations=0, residual=res)
