"""Coefficient triples (a, b, c) for one shifted-BDF2 IMEX step.

The time derivative at the shifted point t* = t_n + beta * (t_{n+1} - t_n)
is approximated by a three-node difference formula with weights ``a``;
the implicit value u(t*) by a two-node combination of (u^n, u^{n+1}) with
weights ``b``; the explicit value u(t*) by a two-node combination of
(u^{n-1}, u^n) with weights ``c``. Each weight set is the unique solution
of a small Vandermonde system in the node offsets from t*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CoefficientError(ValueError):
    """Inadmissible shift or node configuration."""


@dataclass(frozen=True)
class StepCoefficients:
    """One step's weight sets.

    Attributes
    ----------
    beta : float
        Shift parameter, > 1.
    a : (a0, a1, a2)
        Derivative weights for (u^{n-1}, u^n, u^{n+1}), in units of 1/time.
    b : (b0, b1)
        Implicit interpolation weights for (u^n, u^{n+1}).
    c : (c0, c1)
        Explicit extrapolation weights for (u^{n-1}, u^n).
    t_eval : float
        The absolute evaluation time t*.
    """

    beta: float
    a: tuple[float, float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    t_eval: float


def _derivative_weights(d0: float, d1: float, d2: float) -> tuple[float, float, float]:
    # Cramer elimination of the 3x3 Vandermonde system in the offsets d_q:
    #   sum a_q = 0,  sum a_q d_q = 1,  sum a_q d_q^2 = 0.
    a0 = -(d1 + d2) / ((d1 - d0) * (d2 - d0))
    a1 = (d0 + d2) / ((d1 - d0) * (d2 - d1))
    a2 = -(d0 + d1) / ((d2 - d0) * (d2 - d1))
    return a0, a1, a2


def _interp_weights(dl: float, dr: float) -> tuple[float, float]:
    # 2x2 system: wl + wr = 1, wl*dl + wr*dr = 0.
    wl = dr / (dr - dl)
    return wl, 1.0 - wl


def uniform_coeffs(beta: float) -> StepCoefficients:
    """Weights for the unit step over the nodes (-1, 0, 1).

    On a uniform grid with step tau, ``a / tau`` are the derivative
    weights of every step and t* = t_n + beta * tau; ``b`` and ``c`` do
    not depend on the step.
    """
    return nonuniform_coeffs(-1.0, 0.0, 1.0, beta)


def _check_nodes(t_prev: float, t_curr: float, t_next: float, beta: float) -> float:
    if beta <= 1.0:
        raise CoefficientError(f"shift parameter must exceed 1, got beta={beta}")
    if not (t_prev < t_curr < t_next):
        raise CoefficientError(
            f"nodes must be strictly increasing, got ({t_prev}, {t_curr}, {t_next})"
        )
    return t_curr + beta * (t_next - t_curr)


def vandermonde_condition(t_prev: float, t_curr: float, t_next: float,
                          beta: float) -> float:
    """1-norm condition number of the 3x3 offset Vandermonde matrix.

    The offsets from t* are measured in units of the step t_next - t_curr,
    so the value depends only on the shape of the triple: shifting or
    scaling all three nodes leaves it unchanged.
    """
    t_star = _check_nodes(t_prev, t_curr, t_next, beta)
    d = (np.array([t_prev, t_curr, t_next]) - t_star) / (t_next - t_curr)
    v = np.vstack([np.ones(3), d, d * d])
    return float(np.linalg.cond(v, 1))


def nonuniform_coeffs(t_prev: float, t_curr: float, t_next: float, beta: float,
                      cond_limit: float = 1e12) -> StepCoefficients:
    """Weights for one step over the node triple (t_prev, t_curr, t_next).

    The shifted evaluation time is t* = t_curr + beta * (t_next - t_curr),
    which reduces to (n + beta) * dt on a uniform grid. The ``a`` weights
    carry units of 1/time.

    Raises
    ------
    CoefficientError
        For non-monotone nodes, beta <= 1, or a node triple so skewed that
        its step-normalised Vandermonde condition number
        (``vandermonde_condition``) exceeds ``cond_limit``.
    """
    t_star = _check_nodes(t_prev, t_curr, t_next, beta)
    if vandermonde_condition(t_prev, t_curr, t_next, beta) > cond_limit:
        raise CoefficientError(
            f"near-degenerate node triple ({t_prev}, {t_curr}, {t_next}): "
            f"Vandermonde condition exceeds {cond_limit:g}"
        )
    d0, d1, d2 = t_prev - t_star, t_curr - t_star, t_next - t_star
    a = _derivative_weights(d0, d1, d2)
    b0, b1 = _interp_weights(d1, d2)
    c0, c1 = _interp_weights(d0, d1)
    return StepCoefficients(
        beta=float(beta), a=a, b=(b0, b1), c=(c0, c1), t_eval=t_star,
    )

