"""2D tensor-product grid, matrix-free 5-point Laplacian, Dirichlet lifting.

Fields are plain 1D float arrays over the interior nodes in column-major
order (x fastest): entry k = (j - 1) * (Nx - 1) + (i - 1) holds the value
at (x_i, y_j) for i = 1..Nx-1, j = 1..Ny-1. Boundary rows and columns are
eliminated; their influence enters through ``boundary_contribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.fft import dstn, idstn


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

    @cached_property
    def xs(self) -> np.ndarray:
        """Interior x coordinates x_i = xa + i * hx, i = 1..Nx-1 (read-only)."""
        return _read_only(self.xa + self.hx * np.arange(1, self.nx))

    @cached_property
    def ys(self) -> np.ndarray:
        """Interior y coordinates y_j = ya + j * hy, j = 1..Ny-1 (read-only)."""
        return _read_only(self.ya + self.hy * np.arange(1, self.ny))

    @cached_property
    def boundary_ring(self) -> BoundaryRing:
        """The Dirichlet neighbours of the interior, built once per grid.

        Ordered left edge, right edge, bottom edge, top edge (each along
        its axis), the order in which ``boundary_contribution`` adds them
        up at a corner node.
        """
        rows, cols = self.shape
        first_column, first_row = np.arange(rows) * cols, np.arange(cols)
        x = np.concatenate([np.full(rows, self.xa), np.full(rows, self.xb),
                            self.xs, self.xs])
        y = np.concatenate([self.ys, self.ys,
                            np.full(cols, self.ya), np.full(cols, self.yb)])
        node = np.concatenate([first_column, first_column + (cols - 1),
                               first_row, first_row + (rows - 1) * cols])
        ax, ay = 1.0 / self.hx**2, 1.0 / self.hy**2
        weight = np.repeat([ax, ax, ay, ay], [rows, rows, cols, cols])
        return BoundaryRing(*map(_read_only, (x, y, node, weight)))


class BoundaryRing(NamedTuple):
    """Boundary nodes next to the interior, one entry per stencil term.

    Entry k sits at (x[k], y[k]) and adds weight[k] (1/hx^2 or 1/hy^2)
    times its boundary value to the interior node with flat index
    node[k]. An interior node appears once per boundary neighbour: twice
    next to a corner, more often on an axis of two cells.
    """

    x: np.ndarray
    y: np.ndarray
    node: np.ndarray
    weight: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_field(u: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValueError(
            f"field length {u.shape} does not match grid interior ({grid.n_interior},)"
        )
    return u


def eval_interior(fn, grid: SpaceGrid, t: float | None = None) -> np.ndarray:
    """Evaluate fn(x, y[, t]) on the interior nodes, flattened x-fastest.

    fn receives the coordinates on broadcast axes, x of shape (1, Nx-1)
    and y of shape (Ny-1, 1), so a separable expression costs O(N)
    transcendental calls instead of O(N^2).
    """
    x, y = grid.xs[None, :], grid.ys[:, None]
    vals = fn(x, y) if t is None else fn(x, y, t)
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).ravel().copy()


def apply_laplacian(u: np.ndarray, grid: SpaceGrid, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free 5-point Laplacian with zero ghost values.

    Boundary neighbor terms are deliberately dropped; add
    ``boundary_contribution`` to recover the discrete Laplacian of the
    full grid function.

    ``out`` receives the result and ``work`` serves as scratch: 1D float
    fields of the interior's length that share no memory with ``u`` or
    with each other, allocated when not given. Returns ``out``.

    The neighbour terms are shifts of the flat field, by one entry along
    x and by one row along y: unit-stride loops, where 2D column slices
    loop once per row. Along x a row's end meets the next row's start,
    so the scaled copy holds -0.0 in the column that would wrap: -0.0 is
    the exact additive identity, where +0.0 turns -0.0 into +0.0. Each
    node adds its terms centre, left, right, below, above.
    """
    u = check_field(u, grid)
    cols = grid.nx - 1
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    if out is None:
        out = np.empty(grid.n_interior)
    if work is None:
        work = np.empty(grid.n_interior)
    # the ufuncs take their output positionally, which on small grids is
    # measurably cheaper than the out= keyword
    np.multiply(-2.0 * (ax + ay), u, out)
    # one scaled copy per axis, reused for both neighbours along it
    np.multiply(ax, u, work)
    last, first = slice(cols - 1, None, cols), slice(0, None, cols)
    work[last] = -0.0
    out[1:] += work[:-1]
    # the right shift wraps the first column instead of the last
    np.multiply(ax, u[last], work[last])
    work[first] = -0.0
    out[:-1] += work[1:]
    np.multiply(ay, u, work)
    out[cols:] += work[:-cols]
    out[:-cols] += work[cols:]
    return out


def laplacian_eigenvalues(grid: SpaceGrid) -> np.ndarray:
    """Spectrum of ``apply_laplacian`` in the type-I sine basis.

    The sine modes sin(i*pi*x/Lx) sin(j*pi*y/Ly) diagonalise the 5-point
    Laplacian with zero boundary values, so for a field u

        apply_laplacian(u) = from_sine(lam * to_sine(u))

    with lam[j-1, i-1] = -(4/hx^2) sin^2(i*pi/(2Nx)) - (4/hy^2) sin^2(j*pi/(2Ny)).
    """
    lx = -4.0 / grid.hx**2 * np.sin(np.pi * np.arange(1, grid.nx) / (2 * grid.nx)) ** 2
    ly = -4.0 / grid.hy**2 * np.sin(np.pi * np.arange(1, grid.ny) / (2 * grid.ny)) ** 2
    return ly[:, None] + lx[None, :]


def to_sine(u: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    """Coefficients of the field u in the sine basis of
    ``laplacian_eigenvalues``, an array of shape ``grid.shape``.

    The ``scipy.fft`` DST ``type=1, norm="ortho"`` on both axes of the
    x-fastest field. It is orthonormal, and ``from_sine`` is its inverse.
    """
    return dstn(np.reshape(u, grid.shape), type=1, norm="ortho")


def from_sine(v: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    """The field, flattened x-fastest, whose sine coefficients are v."""
    return idstn(np.reshape(v, grid.shape), type=1, norm="ortho").ravel()


def boundary_contribution(bc, t: float, grid: SpaceGrid) -> np.ndarray:
    """Dirichlet neighbor terms of the 5-point stencil at time t.

    ``bc(x, y, t)`` supplies the boundary values. It is called once per
    call, with x and y equal-shape 1D arrays of the coordinates of
    ``grid.boundary_ring``, and returns values of that shape or a scalar.
    The result is nonzero only at interior nodes adjacent to the boundary
    and satisfies apply_laplacian(u) + boundary_contribution = discrete
    Laplacian of the full grid function whose boundary trace is ``bc``.
    """
    ring = grid.boundary_ring
    terms = ring.weight * np.asarray(bc(ring.x, ring.y, t), dtype=float)
    # bincount sums each node's terms in ring order, starting from 0.0
    return np.bincount(ring.node, weights=terms, minlength=grid.n_interior)


def field_to_csv(u: np.ndarray, grid: SpaceGrid, path, header_lines=()) -> None:
    """Write (x, y, value) triples in column-major order (x fastest).

    Every number is written with ``repr``, so the file reads back exactly.
    """
    u = check_field(u, grid)
    xs = [repr(x) for x in grid.xs.tolist()]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x,y,value\n")
        for y, row in zip(grid.ys.tolist(), u.reshape(grid.shape)):
            y = repr(y)
            fh.write("".join(f"{x},{y},{v!r}\n" for x, v in zip(xs, row.tolist())))
