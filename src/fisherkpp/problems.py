"""Fisher-KPP problem instances: nonlinearities, data, exact solutions.

Two ready-made instances are provided: a manufactured smooth solution on
the unit-pi square (``example1``) and a diagonal traveling wave on a large
square (``example2``). All callables are vectorized over numpy arrays and
use the argument convention f(x, y[, t]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spatial import SpaceGrid, eval_interior

LOGISTIC_P = "logistic_p"
PQ_PRODUCT = "pq_product"


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term: u*(1 - u**p) or u**p * (1 - u)**q."""

    form: str
    p: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if self.form not in (LOGISTIC_P, PQ_PRODUCT):
            raise ValueError(f"unknown nonlinearity form {self.form!r}")


def f_eval(u, nl: Nonlinearity):
    """Pointwise reaction value; accepts scalars or arrays.

    A non-integer exponent needs a non-negative base: u for p, 1 - u for
    q. A value outside that range raises ValueError instead of giving NaN.
    """
    u = np.asarray(u, dtype=float)
    if not float(nl.p).is_integer() and u.min() < 0.0:
        raise ValueError(f"{nl.form}: u**p with non-integer p={nl.p} is "
                         f"undefined at u={float(u.min())!r} < 0")
    if nl.form == LOGISTIC_P:
        return u * (1.0 - u**nl.p)
    if not float(nl.q).is_integer() and u.max() > 1.0:
        raise ValueError(f"{nl.form}: (1 - u)**q with non-integer q={nl.q} is "
                         f"undefined at u={float(u.max())!r} > 1")
    return u**nl.p * (1.0 - u) ** nl.q


@dataclass(frozen=True)
class ProblemSpec:
    """One reaction-diffusion instance on a rectangle.

    ``boundary(x, y, t)`` supplies Dirichlet data on all four edges,
    ``initial(x, y)`` the starting state, ``source(x, y, t)`` an optional
    forcing, and ``exact(x, y, t)`` an optional reference solution for
    error measurement.

    The lifting calls ``boundary`` once per evaluation time, with x and y
    equal-shape 1D arrays holding the coordinates of the whole boundary
    ring (``SpaceGrid.boundary_ring``); it returns values of that shape
    or a scalar.
    """

    name: str
    domain: tuple[float, float, float, float]
    T: float
    D: float
    K: float
    nonlinearity: Nonlinearity
    boundary: Callable
    initial: Callable
    source: Optional[Callable] = None
    exact: Optional[Callable] = None

    def space_grid(self, nx: int, ny: int) -> SpaceGrid:
        xa, xb, ya, yb = self.domain
        return SpaceGrid(xa=xa, xb=xb, ya=ya, yb=yb, nx=nx, ny=ny)


def example1(T: float = 1.0) -> ProblemSpec:
    """Manufactured solution sin(t) sin(x) sin(y) on [0, pi]^2.

    Zero initial and boundary data; the forcing is chosen so the logistic
    equation u_t = lap(u) + u(1 - u) + g is satisfied exactly.
    """

    def exact(x, y, t):
        return np.sin(t) * np.sin(x) * np.sin(y)

    def source(x, y, t):
        s = np.sin(t) * np.sin(x) * np.sin(y)
        return s * (1.0 + s) + np.cos(t) * np.sin(x) * np.sin(y)

    return ProblemSpec(
        name="manufactured",
        domain=(0.0, np.pi, 0.0, np.pi),
        T=float(T),
        D=1.0,
        K=1.0,
        nonlinearity=Nonlinearity(LOGISTIC_P, p=1),
        boundary=lambda x, y, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        initial=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        source=source,
        exact=exact,
    )


def example2(T: float = 1.0) -> ProblemSpec:
    """Diagonal traveling wave on [-50, 50]^2.

    u = [1 + exp((x - y)/sqrt(12) - 5t/6)]^(-2) solves the logistic
    equation exactly: a front of speed 5/sqrt(6) along (1, -1)/sqrt(2).
    Initial and boundary data are the wave itself.
    """

    def exact(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = (x - y) / np.sqrt(12.0) - 5.0 * t / 6.0
        return (1.0 + np.exp(s)) ** -2.0

    return ProblemSpec(
        name="wave",
        domain=(-50.0, 50.0, -50.0, 50.0),
        T=float(T),
        D=1.0,
        K=1.0,
        nonlinearity=Nonlinearity(PQ_PRODUCT, p=1, q=1),
        boundary=exact,
        initial=lambda x, y: exact(x, y, 0.0),
        source=None,
        exact=exact,
    )


PROBLEMS = {"manufactured": example1, "wave": example2}


def source_at_shifted_time(spec: ProblemSpec, t: float,
                           grid: SpaceGrid) -> np.ndarray:
    """Forcing sampled on the interior at t, a step's shifted time t*."""
    if spec.source is None:
        return np.zeros(grid.n_interior)
    return eval_interior(spec.source, grid, t=t)
