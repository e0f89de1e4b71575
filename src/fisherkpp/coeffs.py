"""Coefficient triples (a, b, c) for one shifted-BDF2 IMEX step.

The time derivative at the shifted point t* = t_n + beta * tau, with
tau = t_{n+1} - t_n, is approximated by weights ``a`` on
(u^{n-1}, u^n, u^{n+1}); the implicit value u(t*) by weights ``b`` on
(u^n, u^{n+1}); the explicit value u(t*) by weights ``c`` on (u^{n-1}, u^n).
They are Lagrange weights over the node offsets from t* in units of tau,
d = (-(rho + beta), -beta, 1 - beta), so besides beta they depend only on
the step ratio rho = (t_n - t_{n-1}) / tau:

    a = ((2 beta - 1) / (rho (rho + 1)), -(rho + 2 beta - 1) / rho,
         (rho + 2 beta) / (rho + 1)) / tau
    b = (1 - beta, beta),  c = (-beta / rho, 1 + beta / rho)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# largest admitted ``vandermonde_condition`` of a node triple
COND_LIMIT = 1e12


class CoefficientError(ValueError):
    """Inadmissible shift or node configuration."""


@dataclass(frozen=True)
class StepCoefficients:
    """One step's weight sets.

    Attributes
    ----------
    a : (a0, a1, a2)
        Derivative weights for (u^{n-1}, u^n, u^{n+1}), in units of 1/time.
    b : (b0, b1)
        Implicit interpolation weights for (u^n, u^{n+1}).
    c : (c0, c1)
        Explicit extrapolation weights for (u^{n-1}, u^n).
    t_eval : float
        The absolute evaluation time t*.
    """

    a: tuple[float, float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    t_eval: float


def uniform_coeffs(beta: float) -> StepCoefficients:
    """Weights for the unit step over the nodes (-1, 0, 1).

    On a uniform grid with step tau, ``a / tau`` are the derivative
    weights of every step and t* = t_n + beta * tau; ``b`` and ``c`` do
    not depend on the step.
    """
    return nonuniform_coeffs(-1.0, 0.0, 1.0, beta)


def _check_nodes(t_prev: float, t_curr: float, t_next: float, beta: float) -> float:
    """The step ratio rho of an admissible triple."""
    if beta <= 1.0:
        raise CoefficientError(f"shift parameter must exceed 1, got beta={beta}")
    if not (t_prev < t_curr < t_next):
        raise CoefficientError(
            f"nodes must be strictly increasing, got ({t_prev}, {t_curr}, {t_next})"
        )
    return (t_curr - t_prev) / (t_next - t_curr)


def vandermonde_condition(t_prev: float, t_curr: float, t_next: float,
                          beta: float) -> float:
    """1-norm condition number of the 3x3 offset Vandermonde matrix,
    ||V||_1 * ||V^-1||_1 in closed form.

    The offsets from t* are measured in units of the step t_next - t_curr,
    so the value depends only on the step ratio: shifting or scaling all
    three nodes leaves it unchanged. A ratio that under- or overflows
    gives inf.
    """
    return _condition(_check_nodes(t_prev, t_curr, t_next, beta), beta)


def _condition(rho: float, beta: float) -> float:
    """``vandermonde_condition`` of a triple with step ratio rho."""
    if not 0.0 < rho < math.inf:
        return math.inf
    d = (-(rho + beta), -beta, 1.0 - beta)
    # V has columns (1, d_j, d_j^2). Row j of V^-1 holds the monomial
    # coefficients of the Lagrange basis polynomial
    #   l_j(x) = (x - d_a)(x - d_b) / w_j,  w_j = (d_j - d_a)(d_j - d_b),
    # that is (d_a d_b, -(d_a + d_b), 1) / w_j; |w_j| comes from rho, not
    # from differences of rounded offsets.
    w = (rho * (rho + 1.0), rho, rho + 1.0)
    norm_v = max(1.0 + abs(dj) + dj * dj for dj in d)
    inv_cols = [0.0, 0.0, 0.0]
    for j in range(3):
        da, db = d[j - 1], d[j - 2]
        inv_cols[0] += abs(da * db) / w[j]
        inv_cols[1] += abs(da + db) / w[j]
        inv_cols[2] += 1.0 / w[j]
    return norm_v * max(inv_cols)


def nonuniform_coeffs(t_prev: float, t_curr: float, t_next: float,
                      beta: float) -> StepCoefficients:
    """Weights for one step over the node triple (t_prev, t_curr, t_next),
    in the closed form of the module docstring.

    The shifted evaluation time is t* = t_curr + beta * tau, which reduces
    to (n + beta) * dt on a uniform grid. The ``a`` weights carry units of
    1/time.

    Raises
    ------
    CoefficientError
        For non-monotone nodes, beta <= 1, a triple whose
        ``vandermonde_condition`` exceeds ``COND_LIMIT``, a step so
        small that the ``a`` weights are not finite, or nodes so large
        that t* is not finite.
    """
    rho = _check_nodes(t_prev, t_curr, t_next, beta)
    if not _condition(rho, beta) <= COND_LIMIT:
        raise CoefficientError(
            f"near-degenerate node triple ({t_prev}, {t_curr}, {t_next}): "
            f"Vandermonde condition exceeds {COND_LIMIT:g}"
        )
    tau = t_next - t_curr
    a = ((2.0 * beta - 1.0) / (rho * (rho + 1.0)) / tau,
         -(rho + 2.0 * beta - 1.0) / rho / tau,
         (rho + 2.0 * beta) / (rho + 1.0) / tau)
    if not all(map(math.isfinite, a)):
        raise CoefficientError(
            f"node triple ({t_prev}, {t_curr}, {t_next}) gives non-finite "
            f"weights: the step {tau:g} is too small"
        )
    t_eval = t_curr + beta * tau
    if not math.isfinite(t_eval):
        raise CoefficientError(
            f"node triple ({t_prev}, {t_curr}, {t_next}) gives a non-finite "
            f"shifted time t* = {t_eval}"
        )
    return StepCoefficients(a=a, b=(1.0 - beta, beta),
                            c=(-beta / rho, 1.0 + beta / rho), t_eval=t_eval)
