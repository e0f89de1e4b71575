"""2D tensor-product grid, matrix-free 5-point Laplacian, Dirichlet lifting.

Fields are plain 1D float arrays over the interior nodes in column-major
order (x fastest): entry k = (j - 1) * (Nx - 1) + (i - 1) holds the value
at (x_i, y_j) for i = 1..Nx-1, j = 1..Ny-1. Boundary rows and columns are
eliminated; their influence enters through ``boundary_contribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DENSE_LIMIT = 10_000


@dataclass(frozen=True)
class SpaceGrid:
    """Rectangle [xa, xb] x [ya, yb] subdivided into Nx by Ny cells."""

    xa: float
    xb: float
    ya: float
    yb: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.xb <= self.xa or self.yb <= self.ya:
            raise ValueError("domain rectangle must have positive extent")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2 cells per axis for interior nodes")

    @property
    def hx(self) -> float:
        return (self.xb - self.xa) / self.nx

    @property
    def hy(self) -> float:
        return (self.yb - self.ya) / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        """Interior lattice shape (Ny - 1, Nx - 1), rows indexed by y."""
        return (self.ny - 1, self.nx - 1)

    @property
    def n_interior(self) -> int:
        return (self.nx - 1) * (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        """Interior x coordinates x_i = xa + i * hx, i = 1..Nx-1."""
        return self.xa + self.hx * np.arange(1, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.ya + self.hy * np.arange(1, self.ny)

    @cached_property
    def _meshes(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = np.meshgrid(self.xs, self.ys)
        X.setflags(write=False)
        Y.setflags(write=False)
        return X, Y

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Interior coordinate arrays X, Y of shape ``self.shape``.

        Built once per grid and read-only, since every call shares them.
        """
        return self._meshes


def check_field(u: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValueError(
            f"field length {u.shape} does not match grid interior ({grid.n_interior},)"
        )
    return u


def eval_interior(fn, grid: SpaceGrid, t: float | None = None) -> np.ndarray:
    """Evaluate fn(x, y[, t]) on the interior nodes, flattened x-fastest."""
    X, Y = grid.meshes()
    vals = fn(X, Y) if t is None else fn(X, Y, t)
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).ravel().copy()


def apply_laplacian(u: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    """Matrix-free 5-point Laplacian with zero ghost values.

    Boundary neighbor terms are deliberately dropped; add
    ``boundary_contribution`` to recover the discrete Laplacian of the
    full grid function.
    """
    u = check_field(u, grid)
    U = u.reshape(grid.shape)
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    out = (-2.0 * (ax + ay)) * U
    out[:, 1:] += ax * U[:, :-1]
    out[:, :-1] += ax * U[:, 1:]
    out[1:, :] += ay * U[:-1, :]
    out[:-1, :] += ay * U[1:, :]
    return out.ravel()


def boundary_contribution(bc, t: float, grid: SpaceGrid) -> np.ndarray:
    """Dirichlet neighbor terms of the 5-point stencil at time t.

    ``bc(x, y, t)`` supplies the boundary values; the result is nonzero
    only at interior nodes adjacent to the boundary and satisfies
    apply_laplacian(u) + boundary_contribution = discrete Laplacian of the
    full grid function whose boundary trace is ``bc``.
    """
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    xs, ys = grid.xs, grid.ys
    out = np.zeros(grid.shape)

    def edge(x, y):
        vals = np.asarray(bc(x, y, t), dtype=float)
        return np.broadcast_to(vals, np.broadcast_shapes(np.shape(x), np.shape(y)))

    out[:, 0] += ax * edge(grid.xa, ys)
    out[:, -1] += ax * edge(grid.xb, ys)
    out[0, :] += ay * edge(xs, grid.ya)
    out[-1, :] += ay * edge(xs, grid.yb)
    return out.ravel()


def _second_difference_1d(n_cells: int, h: float) -> np.ndarray:
    m = n_cells - 1
    a = np.zeros((m, m))
    np.fill_diagonal(a, -2.0)
    idx = np.arange(m - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return a / h**2


def assemble_dense(grid: SpaceGrid) -> np.ndarray:
    """Kronecker-assembled dense Laplacian, for oracles and small solves.

    L = I_y (x) A_x + A_y (x) I_x with tridiagonal A_x, A_y. Guarded to
    ``DENSE_LIMIT`` interior nodes.
    """
    if grid.n_interior > DENSE_LIMIT:
        raise ValueError(
            f"dense assembly limited to {DENSE_LIMIT} interior nodes, "
            f"requested {grid.n_interior}"
        )
    a_x = _second_difference_1d(grid.nx, grid.hx)
    a_y = _second_difference_1d(grid.ny, grid.hy)
    i_x = np.eye(grid.nx - 1)
    i_y = np.eye(grid.ny - 1)
    return np.kron(i_y, a_x) + np.kron(a_y, i_x)


def field_to_csv(u: np.ndarray, grid: SpaceGrid, path, header_lines=()) -> None:
    """Write (x, y, value) triples in column-major order (x fastest)."""
    u = check_field(u, grid)
    X, Y = grid.meshes()
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x,y,value\n")
        for xv, yv, uv in zip(X.ravel(), Y.ravel(), u):
            fh.write(f"{float(xv)!r},{float(yv)!r},{float(uv)!r}\n")
