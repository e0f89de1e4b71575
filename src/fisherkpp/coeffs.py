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

# largest admitted amplification |c0| + |c1| = 1 + 2 beta / rho of the
# extrapolation weights
AMPLIFICATION_LIMIT = 1e11


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
        For non-monotone nodes, beta <= 1 or NaN, a step ratio so small
        that the amplification 1 + 2 beta / rho of the ``c`` weights
        exceeds ``AMPLIFICATION_LIMIT``, a step so small that the ``a``
        weights are not finite, or nodes so large that t* is not finite.
    """
    if not beta > 1.0:
        raise CoefficientError(f"shift parameter must exceed 1, got beta={beta}")
    if not (t_prev < t_curr < t_next):
        raise CoefficientError(
            f"nodes must be strictly increasing, got ({t_prev}, {t_curr}, {t_next})"
        )
    tau = t_next - t_curr
    rho = (t_curr - t_prev) / tau
    # no division by rho: a ratio that underflows to 0 is rejected here
    if not 2.0 * beta <= (AMPLIFICATION_LIMIT - 1.0) * rho:
        raise CoefficientError(
            f"node triple ({t_prev}, {t_curr}, {t_next}) has step ratio "
            f"rho = {rho:g}: the extrapolation weights amplify by "
            f"1 + 2 beta / rho > {AMPLIFICATION_LIMIT:g}"
        )
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
