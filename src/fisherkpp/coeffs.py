"""Coefficient triples (a, b, c) for one shifted-BDF2 IMEX step.

The time derivative at the shifted point t* = t_n + beta * (t_{n+1} - t_n)
is approximated by a three-node difference formula with weights ``a``;
the implicit value u(t*) by a two-node combination of (u^n, u^{n+1}) with
weights ``b``; the explicit value u(t*) by a two-node combination of
(u^{n-1}, u^n) with weights ``c``. Each weight set is the unique solution
of a small Vandermonde system in the node offsets from t*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
    """1-norm condition number of the 3x3 offset Vandermonde matrix,
    ||V||_1 * ||V^-1||_1 in closed form.

    The offsets from t* are measured in units of the step t_next - t_curr,
    so the value depends only on the shape of the triple: shifting or
    scaling all three nodes leaves it unchanged.
    """
    t_star = _check_nodes(t_prev, t_curr, t_next, beta)
    return _condition(t_prev, t_curr, t_next, t_star)


def _condition(t_prev: float, t_curr: float, t_next: float,
               t_star: float) -> float:
    """``vandermonde_condition`` of a checked triple with shifted time t*."""
    step = t_next - t_curr
    d = [(t - t_star) / step for t in (t_prev, t_curr, t_next)]
    # V has columns (1, d_j, d_j^2). Row j of V^-1 holds the monomial
    # coefficients of the Lagrange basis polynomial
    #   l_j(x) = (x - d_a)(x - d_b) / w_j,  w_j = (d_j - d_a)(d_j - d_b),
    # that is (d_a d_b, -(d_a + d_b), 1) / w_j.
    norm_v = max(1.0 + abs(dj) + dj * dj for dj in d)
    inv_cols = [0.0, 0.0, 0.0]
    for j in range(3):
        da, db = d[j - 1], d[j - 2]
        w = abs((d[j] - da) * (d[j] - db))
        inv_cols[0] += abs(da * db) / w
        inv_cols[1] += abs(da + db) / w
        inv_cols[2] += 1.0 / w
    return norm_v * max(inv_cols)


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
    if _condition(t_prev, t_curr, t_next, t_star) > cond_limit:
        raise CoefficientError(
            f"near-degenerate node triple ({t_prev}, {t_curr}, {t_next}): "
            f"Vandermonde condition exceeds {cond_limit:g}"
        )
    # offsets near unit size, so the products in _derivative_weights cannot
    # underflow on tiny steps; scaling by a power of two is exact, so
    # ordinary steps keep their bits
    _, e = math.frexp(t_next - t_curr)
    d0, d1, d2 = (math.ldexp(t - t_star, -e) for t in (t_prev, t_curr, t_next))
    a = tuple(math.ldexp(w, -e) for w in _derivative_weights(d0, d1, d2))
    b0, b1 = _interp_weights(d1, d2)
    c0, c1 = _interp_weights(d0, d1)
    return StepCoefficients(a=a, b=(b0, b1), c=(c0, c1), t_eval=t_star)

