"""2D tensor-product grid, matrix-free 5-point Laplacian, Dirichlet lifting.

Fields are plain 1D float arrays over the interior nodes in column-major
order (x fastest): entry k = (j - 1) * (Nx - 1) + (i - 1) holds the value
at (x_i, y_j) for i = 1..Nx-1, j = 1..Ny-1. Boundary rows and columns are
eliminated; their influence enters through ``boundary_contribution``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


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
        if not all(isinstance(n, numbers.Integral) for n in (self.nx, self.ny)):
            raise ValueError(f"cell counts must be integers, got nx={self.nx!r}, "
                             f"ny={self.ny!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need at least 2 cells per axis, got nx={self.nx}, "
                             f"ny={self.ny}")
        # widths, not corners: finite corners can span an extent that overflows
        if not (0.0 < self.hx < np.inf and 0.0 < self.hy < np.inf):
            raise ValueError("domain rectangle must be finite with positive extent")

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

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """Spectrum of ``apply_laplacian`` in the type-I sine basis (read-only).

        The sine modes sin(i*pi*x/Lx) sin(j*pi*y/Ly) diagonalise the 5-point
        Laplacian with zero boundary values, so for a field u

            apply_laplacian(u) = from_sine(lam * to_sine(u))

        with lam[j-1, i-1] = -(4/hx^2) sin^2(i*pi/(2Nx))
                             - (4/hy^2) sin^2(j*pi/(2Ny)).
        """
        nx, ny = self.nx, self.ny
        lx = -4.0 / self.hx**2 * np.sin(np.pi * np.arange(1, nx) / (2 * nx)) ** 2
        ly = -4.0 / self.hy**2 * np.sin(np.pi * np.arange(1, ny) / (2 * ny)) ** 2
        return _read_only(ly[:, None] + lx[None, :])


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
    transcendental calls instead of O(N^2). It may return any shape that
    broadcasts to ``grid.shape``, a scalar included; the result is a new
    array, whatever fn returned.
    """
    x, y = grid.xs[None, :], grid.ys[:, None]
    vals = fn(x, y) if t is None else fn(x, y, t)
    out = np.empty(grid.n_interior)
    np.copyto(out.reshape(grid.shape), vals)
    return out


def apply_laplacian(u: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    """Matrix-free 5-point Laplacian with zero ghost values, a new field.

    Boundary neighbor terms are deliberately dropped; add
    ``boundary_contribution`` to recover the discrete Laplacian of the
    full grid function.
    """
    u = check_field(u, grid)
    out, work = np.empty(grid.n_interior), np.empty(grid.n_interior)
    # sigma = 0, kappa = -1 gives the weights -2 (ax + ay), ax, ay exactly
    return _bind_stencil(u, grid, out, work, 0.0, -1.0)()


def _bind_stencil(u: np.ndarray, grid: SpaceGrid, out: np.ndarray,
                  work: np.ndarray, sigma: float, kappa: float):
    """A zero-argument function that writes sigma * u - kappa * L u into
    ``out`` and returns ``out``.

    ``out`` and ``work`` (scratch) are 1D float fields of the interior's
    length that share no memory with ``u`` or with each other. The
    function reads ``u`` when called, so a caller that rewrites ``u`` in
    place, as CG does, binds once and calls it again and again. The
    weights are sigma + 2 kappa (ax + ay) at the centre and -kappa ax,
    -kappa ay at the neighbours along x and y, with ax = 1/hx^2 and
    ay = 1/hy^2.

    The neighbour terms are shifts of the flat field, by one entry along
    x and by one row along y: unit-stride loops, where 2D column slices
    loop once per row. Along x a row's end meets the next row's start,
    so the scaled copy holds -0.0 in the column that would wrap: -0.0 is
    the exact additive identity, whatever the weights' sign, where +0.0
    turns -0.0 into +0.0. Each node adds its terms centre, left, right,
    below, above.
    """
    cols = grid.nx - 1
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    centre, wx, wy = sigma + 2.0 * kappa * (ax + ay), -kappa * ax, -kappa * ay
    last, first = slice(cols - 1, None, cols), slice(0, None, cols)
    u_last, work_last, work_first = u[last], work[last], work[first]
    # each out view holds the nodes that have an entry to the left (right,
    # below, above) in the flat field, the work view after it that entry
    has_left, left, has_right, right = out[1:], work[:-1], out[:-1], work[1:]
    has_below, below = out[cols:], work[:-cols]
    has_above, above = out[:-cols], work[cols:]

    def stencil() -> np.ndarray:
        # the ufuncs take their output positionally, which on small grids
        # is measurably cheaper than the out= keyword
        np.multiply(centre, u, out)
        # one scaled copy per axis, reused for both neighbours along it
        np.multiply(wx, u, work)
        work_last.fill(-0.0)
        np.add(has_left, left, has_left)
        # the right shift wraps the first column instead of the last
        np.multiply(wx, u_last, work_last)
        work_first.fill(-0.0)
        np.add(has_right, right, has_right)
        np.multiply(wy, u, work)
        np.add(has_below, below, has_below)
        np.add(has_above, above, has_above)
        return out

    return stencil


def to_sine(u: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    """Coefficients of the field u in the sine basis of
    ``grid.laplacian_eigenvalues``, an array of shape ``grid.shape``.

    The ``scipy.fft`` DST ``type=1, norm="ortho"`` on both axes of the
    x-fastest field. It is orthonormal, and ``from_sine`` is its inverse.
    ``scipy.fft`` is imported here and in ``from_sine``, on the first
    transform, not with the package: its import costs about 0.27 s, and a
    run that starts with DP5(4) and solves with CG transforms nothing.
    """
    from scipy.fft import dstn
    return dstn(np.reshape(u, grid.shape), type=1, norm="ortho")


def from_sine(v: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    """The field, flattened x-fastest, whose sine coefficients are v."""
    from scipy.fft import idstn
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
    A field repeats many of its values bit for bit (a planar front along
    its level lines), so each distinct bit pattern is formatted once, and
    -0.0 keeps its own text.
    """
    u = np.ascontiguousarray(check_field(u, grid))
    keys, node_key = np.unique(u.view(np.int64), return_inverse=True)
    values = keys.view(np.float64)
    # a float's repr has at most 24 characters, "-2.2250738585072014e-308":
    # one fixed-width array holds them, filled a thousand str at a time,
    # since thousands of live str objects would take fresh memory
    texts = np.empty(keys.size, dtype="S24")
    for i in range(0, keys.size, 1024):
        texts[i:i + 1024] = [repr(v) for v in values[i:i + 1024].tolist()]
    # one row's lines: x baked in, NUL where y goes, %b for each value;
    # a float's repr holds neither NUL nor %
    row = b"".join(b"%s,\0,%%b\n" % repr(x).encode() for x in grid.xs.tolist())
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines).encode())
        fh.write(b"x,y,value\n")
        for y, row_keys in zip(grid.ys.tolist(), node_key.reshape(grid.shape)):
            fh.write(row.replace(b"\0", repr(y).encode())
                     % tuple(texts[row_keys].tolist()))
