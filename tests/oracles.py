"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own code paths: numpy
linear solves instead of closed-form elimination, explicit loops instead
of vectorized stencils, finite differences instead of hand-derived
sources, a sparse Kronecker Laplacian and scipy's Runge-Kutta instead of
the matrix-free stencil and the stepper.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from fisherkpp.coeffs import StepCoefficients
from fisherkpp.problems import f_eval

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
    return StepCoefficients(
        beta=float(beta), a=(a0, a1, a2), b=(b0, b1), c=(c0, c1), t_eval=t_star,
    )


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

    def trid(m, h2):
        t = np.zeros((m, m))
        for i in range(m):
            t[i, i] = -2.0 / h2
            if i > 0:
                t[i, i - 1] = 1.0 / h2
            if i + 1 < m:
                t[i, i + 1] = 1.0 / h2
        return t

    L = np.kron(np.eye(ny - 1), trid(nx - 1, hx2)) \
        + np.kron(trid(ny - 1, hy2), np.eye(nx - 1))

    D, K = problem.D, problem.K
    rhs = -a1 * u_curr - a0 * u_prev
    rhs += D * b0 * (L @ u_curr + lift(t_curr)) + D * b1 * lift(t_next)
    rhs += K * f_eval(c1 * u_curr + c0 * u_prev, problem.nonlinearity)
    if problem.source is not None:
        X, Y = sgrid.meshes()
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
