"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own code paths: numpy
linear solves instead of closed-form elimination, explicit loops instead
of vectorized stencils, finite differences instead of hand-derived
sources, a sparse Kronecker Laplacian and scipy's Runge-Kutta instead of
the matrix-free stencil and the stepper. The slice-form stencil, the
per-edge lifting, the per-node CSV writer, and the conjugate gradient
loop and step right-hand side that allocate a new array per operation
are earlier library versions, kept as references that the current ones
must match bit for bit.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from fisherkpp.coeffs import StepCoefficients, nonuniform_coeffs
from fisherkpp.problems import f_eval, source_at_shifted_time

# 4th-order central differences; h small enough that the stencil error is
# far below the 1e-10 residual tolerances used by the callers
FD_H = 5e-3


def d_dt(f, x, y, t, h=FD_H):
    return (-f(x, y, t + 2 * h) + 8 * f(x, y, t + h)
            - 8 * f(x, y, t - h) + f(x, y, t - 2 * h)) / (12 * h)


def d2(f, x, y, t, axis, h=FD_H):
    def at(s):
        return f(x + s, y, t) if axis == 0 else f(x, y + s, t)
    return (-at(2 * h) + 16 * at(h) - 30 * at(0.0) + 16 * at(-h) - at(-2 * h)) \
        / (12 * h * h)


def pde_residual(spec, x, y, t):
    """u_t - D*lap(u) - K*f(u) - g at one point for the exact solution."""
    u = spec.exact
    res = d_dt(u, x, y, t)
    res -= spec.D * (d2(u, x, y, t, 0) + d2(u, x, y, t, 1))
    res -= spec.K * f_eval(u(x, y, t), spec.nonlinearity)
    if spec.source is not None:
        res -= spec.source(x, y, t)
    return float(res)


def residual_sample_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    xa, xb, ya, yb = spec.domain
    pad_x, pad_y = 0.05 * (xb - xa), 0.05 * (yb - ya)
    xs = rng.uniform(xa + pad_x, xb - pad_x, count)
    ys = rng.uniform(ya + pad_y, yb - pad_y, count)
    ts = rng.uniform(0.05, spec.T - 0.05, count)
    return zip(xs, ys, ts)


def compatibility_gap(spec, n_samples=64):
    """Max |boundary(.,.,0) - initial| over sampled boundary points."""
    xa, xb, ya, yb = spec.domain
    s = np.linspace(0.0, 1.0, n_samples)
    xs = xa + (xb - xa) * s
    ys = ya + (yb - ya) * s
    gap = 0.0
    for x, y in ((xs, ya), (xs, yb), (xa, ys), (xb, ys)):
        bc = np.asarray(spec.boundary(x, y, 0.0), dtype=float)
        u0 = np.asarray(spec.initial(x, y), dtype=float)
        gap = max(gap, float(np.max(np.abs(bc - u0))))
    return gap


def lagrange_coeffs(t_prev, t_curr, t_next, beta):
    """Step weights from Lagrange basis polynomials.

    Independent route to ``nonuniform_coeffs``: ``a`` are the derivatives
    of the three quadratic basis polynomials over (t_prev, t_curr, t_next)
    evaluated at t*; ``b`` and ``c`` are two-node basis values at t*.
    """
    t_star = t_curr + beta * (t_next - t_curr)
    a0 = (2.0 * t_star - t_curr - t_next) / ((t_prev - t_curr) * (t_prev - t_next))
    a1 = (2.0 * t_star - t_prev - t_next) / ((t_curr - t_prev) * (t_curr - t_next))
    a2 = (2.0 * t_star - t_prev - t_curr) / ((t_next - t_prev) * (t_next - t_curr))
    b1 = (t_star - t_curr) / (t_next - t_curr)
    b0 = (t_star - t_next) / (t_curr - t_next)
    c1 = (t_star - t_prev) / (t_curr - t_prev)
    c0 = (t_star - t_curr) / (t_prev - t_curr)
    return StepCoefficients(a=(a0, a1, a2), b=(b0, b1), c=(c0, c1), t_eval=t_star)


def dense_laplacian(sgrid):
    """The 5-point Laplacian with zero boundary values as a dense matrix,
    assembled by np.kron from one tridiagonal second difference per axis:
    L = I_y (x) A_x + A_y (x) I_x."""

    def trid(m, h2):
        t = np.zeros((m, m))
        for i in range(m):
            t[i, i] = -2.0 / h2
            if i > 0:
                t[i, i - 1] = 1.0 / h2
            if i + 1 < m:
                t[i, i + 1] = 1.0 / h2
        return t

    nx, ny = sgrid.nx, sgrid.ny
    return np.kron(np.eye(ny - 1), trid(nx - 1, sgrid.hx**2)) \
        + np.kron(trid(ny - 1, sgrid.hy**2), np.eye(nx - 1))


def dense_step_oracle(problem, sgrid, t_prev, t_curr, t_next, beta,
                      u_prev, u_curr):
    """Fully discrete formula, assembled densely and solved directly.

    Independent route: numpy Vandermonde solves for the weights, an
    explicit-loop boundary lifting, np.kron assembly, dense solve.
    """
    t_star = t_curr + beta * (t_next - t_curr)
    d = np.array([t_prev, t_curr, t_next]) - t_star
    a = np.linalg.solve(np.vstack([np.ones(3), d, d * d]), [0.0, 1.0, 0.0])
    b = np.linalg.solve(np.vstack([np.ones(2), d[1:]]), [1.0, 0.0])
    c = np.linalg.solve(np.vstack([np.ones(2), d[:2]]), [1.0, 0.0])
    (a0, a1, a2), (b0, b1), (c0, c1) = a, b, c

    nx, ny = sgrid.nx, sgrid.ny
    hx2, hy2 = sgrid.hx**2, sgrid.hy**2
    xs, ys = sgrid.xs, sgrid.ys

    def lift(t):
        out = np.zeros((ny - 1, nx - 1))
        for j in range(ny - 1):
            for i in range(nx - 1):
                if i == 0:
                    out[j, i] += problem.boundary(sgrid.xa, ys[j], t) / hx2
                if i == nx - 2:
                    out[j, i] += problem.boundary(sgrid.xb, ys[j], t) / hx2
                if j == 0:
                    out[j, i] += problem.boundary(xs[i], sgrid.ya, t) / hy2
                if j == ny - 2:
                    out[j, i] += problem.boundary(xs[i], sgrid.yb, t) / hy2
        return out.ravel()

    L = dense_laplacian(sgrid)
    D, K = problem.D, problem.K
    rhs = -a1 * u_curr - a0 * u_prev
    rhs += D * b0 * (L @ u_curr + lift(t_curr)) + D * b1 * lift(t_next)
    rhs += K * f_eval(c1 * u_curr + c0 * u_prev, problem.nonlinearity)
    if problem.source is not None:
        X, Y = np.meshgrid(sgrid.xs, sgrid.ys)
        rhs += np.asarray(problem.source(X, Y, t_star), dtype=float).ravel()
    lhs = a2 * np.eye((nx - 1) * (ny - 1)) - D * b1 * L
    return np.linalg.solve(lhs, rhs)


def mol_rhs_oracle(problem, sgrid):
    """Method-of-lines right-hand side u' = D (L u + lift(t)) + K f(u) + g.

    Independent route: a scipy.sparse Kronecker Laplacian, and a lifting
    that applies the 5-point stencil to a full grid array which holds the
    Dirichlet data on its boundary ring and zeros inside.
    """
    nx, ny = sgrid.nx, sgrid.ny
    hx2 = ((sgrid.xb - sgrid.xa) / nx) ** 2
    hy2 = ((sgrid.yb - sgrid.ya) / ny) ** 2

    def second_difference(m, h2):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / h2

    L = (sp.kron(sp.identity(ny - 1), second_difference(nx - 1, hx2))
         + sp.kron(second_difference(ny - 1, hy2), sp.identity(nx - 1))).tocsr()

    XF, YF = np.meshgrid(np.linspace(sgrid.xa, sgrid.xb, nx + 1),
                         np.linspace(sgrid.ya, sgrid.yb, ny + 1))
    ring = np.ones(XF.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    X, Y = XF[1:-1, 1:-1], YF[1:-1, 1:-1]

    def lift(t):
        full = np.zeros(XF.shape)
        full[ring] = problem.boundary(XF[ring], YF[ring], t)
        return ((full[1:-1, :-2] + full[1:-1, 2:]) / hx2
                + (full[:-2, 1:-1] + full[2:, 1:-1]) / hy2).ravel()

    def rhs(t, u):
        out = problem.D * (L @ u + lift(t))
        out += problem.K * f_eval(u, problem.nonlinearity)
        if problem.source is not None:
            out += problem.source(X, Y, t).ravel()
        return out

    return rhs


def mol_reference(problem, sgrid, rtol=1e-10):
    """Method-of-lines solution at t = T on sgrid's interior nodes.

    The semi-discrete system is integrated by scipy's RK45 at
    rtol = atol = ``rtol``, so the result carries the grid's spatial error
    and, up to that tolerance, no time-discretisation error.
    """
    X, Y = np.meshgrid(np.linspace(sgrid.xa, sgrid.xb, sgrid.nx + 1)[1:-1],
                       np.linspace(sgrid.ya, sgrid.yb, sgrid.ny + 1)[1:-1])
    u0 = np.broadcast_to(problem.initial(X, Y), X.shape).ravel().astype(float)
    sol = solve_ivp(mol_rhs_oracle(problem, sgrid), (0.0, problem.T), u0,
                    method="RK45", rtol=rtol, atol=rtol)
    if not sol.success:
        raise RuntimeError(f"MOL reference integration failed: {sol.message}")
    return sol.y[:, -1]


def laplacian_slices(u, grid):
    """5-point Laplacian with zero ghost values, one scaled slice per term."""
    U = np.asarray(u, dtype=float).reshape(grid.shape)
    ax, ay = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    out = (-2.0 * (ax + ay)) * U
    out[:, 1:] += ax * U[:, :-1]
    out[:, :-1] += ax * U[:, 1:]
    out[1:, :] += ay * U[:-1, :]
    out[:-1, :] += ay * U[1:, :]
    return out.ravel()


def lifting_per_edge(bc, t, grid):
    """Dirichlet lifting with one ``bc`` call per edge, added left, right,
    bottom, top into a zero field."""
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


def field_to_csv_per_node(u, grid, path, header_lines=()):
    """(x, y, value) CSV written one node at a time from the full meshes."""
    X, Y = np.meshgrid(grid.xs, grid.ys)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x,y,value\n")
        for xv, yv, uv in zip(X.ravel(), Y.ravel(), u):
            fh.write(f"{float(xv)!r},{float(yv)!r},{float(uv)!r}\n")


def cg_allocating(sigma, kappa, grid, rhs, x0, tol=1e-10):
    """Conjugate gradients on sigma*I - kappa*L with a new array for every
    operator application and update, the operator applied through
    ``laplacian_slices``. Returns (x, iterations, residual history)."""

    def apply(v):
        return sigma * v - kappa * laplacian_slices(v, grid)

    b_norm = float(np.linalg.norm(rhs))
    x = x0.copy()
    r = rhs - apply(x)
    rr = float(r @ r)
    p = r.copy()
    history = [math.sqrt(rr)]
    for k in range(10 * (grid.nx + grid.ny)):
        if history[-1] <= tol * b_norm:
            return x, k, history
        q = apply(p)
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rr_new = float(r @ r)
        history.append(math.sqrt(rr_new))
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise RuntimeError("reference CG did not converge")


def step_rhs_allocating(problem, sgrid, t_prev, t_curr, t_next, beta,
                        u_prev, u_curr):
    """One step's right-hand side with a new array per operation, the
    Laplacian and lifting taken from ``laplacian_slices`` and
    ``lifting_per_edge``. Returns (rhs, sigma, kappa) of the step."""
    cf = nonuniform_coeffs(t_prev, t_curr, t_next, beta)
    (a0, a1, a2), (b0, b1), (c0, c1) = cf.a, cf.b, cf.c
    D, K = problem.D, problem.K

    def lift(t):
        return lifting_per_edge(problem.boundary, t, sgrid)

    rhs = -a1 * u_curr - a0 * u_prev
    rhs += D * b0 * (laplacian_slices(u_curr, sgrid) + lift(t_curr))
    rhs += D * b1 * lift(t_next)
    if K != 0.0:
        rhs += K * f_eval(c1 * u_curr + c0 * u_prev, problem.nonlinearity)
    rhs += source_at_shifted_time(problem, cf.t_eval, sgrid)
    return rhs, a2, D * b1
