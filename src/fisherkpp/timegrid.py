"""Temporal meshes on [0, T]: uniform and tanh-graded families."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class GridConstructionError(ValueError):
    """Requested time grid violates its invariants (endpoints, monotonicity)."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes t_0 = 0 < t_1 < ... < t_M = T.

    Attributes
    ----------
    T : float
        Final time.
    M : int
        Number of steps (M + 1 nodes).
    nodes : ndarray, shape (M + 1,)
        Node values. Read-only.
    gamma : float or None
        Grading exponent for tanh-graded grids; None for uniform grids.
    """

    T: float
    M: int
    nodes: np.ndarray
    gamma: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.shape != (self.M + 1,):
            raise GridConstructionError(
                f"expected {self.M + 1} nodes, got {nodes.shape}"
            )
        if nodes[0] != 0.0:
            raise GridConstructionError(f"t_0 must be 0, got {nodes[0]!r}")
        if abs(nodes[-1] - self.T) > np.spacing(self.T):
            raise GridConstructionError(
                f"t_M must hit T={self.T!r} within one ulp, got {nodes[-1]!r}"
            )
        if not np.all(np.diff(nodes) > 0.0):
            raise GridConstructionError(
                f"nodes must be strictly increasing (M={self.M}, gamma={self.gamma})"
            )

    @property
    def kind(self) -> str:
        return "uniform" if self.gamma is None else "graded"


def _check_common(T: float, M: int) -> None:
    if not 0.0 < T < np.inf:
        raise GridConstructionError(f"final time must be positive and finite, got {T}")
    if not isinstance(M, numbers.Integral):
        raise GridConstructionError(f"step count must be an integer, got M={M!r}")
    if M < 2:
        raise GridConstructionError(
            f"need at least 2 steps (two history levels), got M={M}"
        )


def uniform_grid(T: float, M: int) -> TimeGrid:
    """Uniform grid with nodes t_n = n * (T / M)."""
    _check_common(T, M)
    return TimeGrid(T=float(T), M=int(M), nodes=np.linspace(0.0, float(T), M + 1))


def graded_grid(T: float, M: int, gamma: float) -> TimeGrid:
    """Tanh-graded grid t_n = T - T * tanh(mu(n) * y(n)) / tanh(mu(n)).

    The per-node stretching exponent is
    mu(z) = (gamma / 2) * M * (ln(M + 2) - ln(z + 1)) / (M - z + 1)
    and y(z) = (M - z) / M, so t_0 = 0 and t_M = T exactly.

    Parameters
    ----------
    T : float
        Final time, finite, > 0.
    M : int
        Step count, an integer >= 2.
    gamma : float
        Grading exponent, finite, > 0. Larger values stretch the steps more.

    Raises
    ------
    GridConstructionError
        On invalid arguments, or if the resulting node sequence is not
        strictly increasing for this (M, gamma) pair.
    """
    _check_common(T, M)
    if not 0.0 < gamma < np.inf:
        raise GridConstructionError(
            f"grading exponent must be positive and finite, got {gamma}"
        )
    T = float(T)
    M = int(M)
    # Nodes come straight from the closed formulas; no incremental sums,
    # so t_M cannot drift off T.
    z = np.arange(M + 1, dtype=float)
    mu = 0.5 * gamma * M * (np.log(M + 2.0) - np.log(z + 1.0)) / (M - z + 1.0)
    y = (M - z) / M
    nodes = T - T * np.tanh(mu * y) / np.tanh(mu)
    return TimeGrid(T=T, M=M, nodes=nodes, gamma=float(gamma))


def time_grid(T: float, M: int, gamma: float | None = None) -> TimeGrid:
    """The uniform grid when ``gamma`` is None, the tanh-graded one otherwise."""
    return uniform_grid(T, M) if gamma is None else graded_grid(T, M, gamma)
