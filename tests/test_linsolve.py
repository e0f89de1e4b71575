import numpy as np
import pytest

from fisherkpp.linsolve import (
    ShiftedOperator,
    SolveFailure,
    cg_solve,
    direct_solve_small,
)
from fisherkpp.coeffs import nonuniform_coeffs
from fisherkpp.problems import example1, example2
from fisherkpp.spatial import SpaceGrid, laplacian_eigenvalues
from fisherkpp.timegrid import time_grid

from oracles import cg_allocating, dense_laplacian


def operator(n, sigma=3.0, kappa=0.5):
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, n, n)
    return ShiftedOperator(sigma=sigma, kappa=kappa, grid=g)


def test_zero_rhs_returns_zero_in_zero_iterations():
    op = operator(7)
    out = cg_solve(op, np.zeros(op.grid.n_interior))
    assert out.iterations == 0
    assert np.all(out.x == 0.0)


def test_recovers_manufactured_solution():
    rng = np.random.default_rng(11)
    op = operator(7)  # 6x6 interior
    v = rng.standard_normal(op.grid.n_interior)
    out = cg_solve(op, op.apply(v), tol=1e-12)
    np.testing.assert_allclose(out.x, v, rtol=0, atol=1e-10)


def test_cg_matches_dense_direct_solve():
    rng = np.random.default_rng(12)
    op = operator(9)  # 8x8 interior
    for _ in range(20):
        rhs = rng.standard_normal(op.grid.n_interior)
        x_cg = cg_solve(op, rhs, tol=1e-12).x
        x_direct = direct_solve_small(op, rhs)
        assert np.abs(x_cg - x_direct).max() <= 1e-9


def test_residual_history_non_increasing():
    rng = np.random.default_rng(13)
    op = operator(9)
    for _ in range(10):
        out = cg_solve(op, rng.standard_normal(op.grid.n_interior), tol=1e-11)
        hist = np.array(out.residuals)
        assert np.all(np.diff(hist) <= 0.0)
        assert len(hist) == out.iterations + 1


def test_identity_limit():
    rng = np.random.default_rng(14)
    op = operator(6, sigma=4.0, kappa=0.0)
    rhs = rng.standard_normal(op.grid.n_interior)
    np.testing.assert_allclose(direct_solve_small(op, rhs), rhs / 4.0, rtol=1e-13)
    out = cg_solve(op, rhs)
    np.testing.assert_allclose(out.x, rhs / 4.0, rtol=1e-10)


def test_direct_residual_tiny():
    rng = np.random.default_rng(15)
    op = operator(9)
    rhs = rng.standard_normal(op.grid.n_interior)
    x = direct_solve_small(op, rhs)
    rel = np.linalg.norm(rhs - op.apply(x)) / np.linalg.norm(rhs)
    assert rel <= 1e-12


def test_nonconvergence_carries_best_iterate():
    rng = np.random.default_rng(16)
    op = operator(9, sigma=1e-6, kappa=1.0)  # badly scaled on purpose
    rhs = rng.standard_normal(op.grid.n_interior)
    with pytest.raises(SolveFailure) as info:
        cg_solve(op, rhs, tol=1e-14, max_iter=2)
    err = info.value
    assert err.iterations == 2
    assert err.best_x.shape == rhs.shape
    assert err.residual > 0.0


def copying_cg(op, rhs, max_iter):
    """Plain CG that copies every new best iterate: the reference for
    ``cg_solve``'s iterates and for the best iterate it reports."""
    x = np.zeros_like(rhs)
    r = rhs - op.apply(x)
    p, rr = r.copy(), float(r @ r)
    best_x, best_res = x.copy(), np.sqrt(rr)
    history = [best_res]
    for _ in range(max_iter):
        q = op.apply(p)
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rr_new = float(r @ r)
        history.append(np.sqrt(rr_new))
        if history[-1] < best_res:
            best_x, best_res = x.copy(), history[-1]
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, history, best_x, best_res


def test_best_iterate_matches_copying_reference():
    # with this seed the residual rises on iterations 7 and 8, then falls
    rng = np.random.default_rng(1)
    op = operator(16, sigma=1e-6, kappa=1.0)
    rhs = rng.standard_normal(op.grid.n_interior)
    rises = 0
    for cap in range(1, 13):
        _, history, best_x, best_res = copying_cg(op, rhs, cap)
        rises += history[-1] > history[-2]
        with pytest.raises(SolveFailure) as info:
            cg_solve(op, rhs, tol=1e-14, max_iter=cap)
        assert info.value.residual == best_res
        # a best iterate rebuilt as x - alpha * p differs by rounding only
        np.testing.assert_allclose(info.value.best_x, best_x, rtol=1e-12,
                                   atol=1e-12 * np.abs(best_x).max())
    assert rises == 2
    # the iterates themselves are unchanged
    x, history, _, _ = copying_cg(op, rhs, 40)
    out = cg_solve(op, rhs, tol=history[-1] / np.linalg.norm(rhs) * 1.0000001)
    assert out.iterations == 40
    assert out.residuals == history
    assert np.array_equal(out.x, x)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (16, 16), (47, 33), (160, 160)])
def test_iterates_match_allocating_reference(nx, ny):
    # the in-place updates repeat the allocating ones operation for operation
    rng = np.random.default_rng(nx * ny)
    g = SpaceGrid(-1.0, 2.0, 0.0, 1.5, nx, ny)
    for sigma, kappa in ((250.0, 2.0), (3.0, 0.5), (1.0, 0.0)):
        op = ShiftedOperator(sigma=sigma, kappa=kappa, grid=g)
        rhs = rng.standard_normal(g.n_interior)
        x0 = rng.standard_normal(g.n_interior)
        out = cg_solve(op, rhs, x0=x0)
        x, iterations, history = cg_allocating(sigma, kappa, g, rhs, x0)
        assert np.array_equal(out.x, x)
        assert out.iterations == iterations
        assert out.residuals == history


def test_apply_writes_into_given_buffers():
    rng = np.random.default_rng(19)
    op = operator(9)
    v = rng.standard_normal(op.grid.n_interior)
    out, work = np.empty_like(v), np.empty_like(v)
    assert op.apply(v, out=out, work=work) is out
    assert np.array_equal(out, op.apply(v))
    # a strided buffer is written through, not through a copy
    strided = np.zeros(2 * v.size)
    op.apply(v, out=strided[::2], work=work)
    assert np.array_equal(strided[::2], out) and not strided[1::2].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_instead_of_returning_warm_start(bad):
    rng = np.random.default_rng(18)
    op = operator(7)
    n = op.grid.n_interior
    rhs = rng.standard_normal(n)
    rhs[5] = bad
    with pytest.raises(SolveFailure, match="not finite"):
        cg_solve(op, rhs, x0=np.zeros(n))
    x0 = np.zeros(n)
    x0[3] = bad
    with pytest.raises(SolveFailure, match="not finite"):
        cg_solve(op, rng.standard_normal(n), x0=x0)


def test_deterministic_given_same_inputs():
    rng = np.random.default_rng(17)
    op = operator(9)
    rhs = rng.standard_normal(op.grid.n_interior)
    x0 = rng.standard_normal(op.grid.n_interior)
    a = cg_solve(op, rhs, x0=x0)
    b = cg_solve(op, rhs, x0=x0)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.residuals == b.residuals


def test_iterations_grow_under_refinement():
    # fixed (sigma, kappa): conditioning worsens with the grid
    rng = np.random.default_rng(18)
    iters = []
    for n in (8, 16, 32):
        op = operator(n, sigma=1.0, kappa=1.0)
        rhs = rng.standard_normal(op.grid.n_interior)
        iters.append(cg_solve(op, rhs, tol=1e-10).iterations)
    assert iters[0] < iters[1] < iters[2]


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 9), (47, 33)])
@pytest.mark.parametrize("sigma", [3.0, 1e-6])
def test_direct_matches_dense_kronecker_solve(nx, ny, sigma):
    g = SpaceGrid(0.0, 1.0, 0.0, 2.0, nx, ny)
    op = ShiftedOperator(sigma=sigma, kappa=0.5, grid=g)
    rhs = np.random.default_rng(nx * ny).standard_normal(g.n_interior)
    want = np.linalg.solve(sigma * np.eye(g.n_interior) - 0.5 * dense_laplacian(g), rhs)
    x = direct_solve_small(op, rhs)
    assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)


def graded_step_operator(problem, grid, beta):
    """The shifted operator of the worst-conditioned step of the graded
    M = 80, gamma = 0.75 grid, and its 2-norm condition number."""
    lam = laplacian_eigenvalues(grid)
    nodes = time_grid(problem.T, 80, 0.75).nodes
    worst = None
    for n in range(1, 80):
        cf = nonuniform_coeffs(nodes[n - 1], nodes[n], nodes[n + 1], beta)
        sigma, kappa = cf.a[2], problem.D * cf.b[1]
        cond = (sigma - kappa * lam.min()) / (sigma - kappa * lam.max())
        if worst is None or cond > worst[1]:
            worst = ShiftedOperator(sigma=sigma, kappa=kappa, grid=grid), cond
    return worst


@pytest.mark.parametrize("problem_fn, nx, ny, beta", [
    (example2, 160, 160, np.pi),  # the graded wave run, 25,281 nodes
    (example1, 161, 97, 2.0),
])
def test_cg_agrees_with_exact_solve_beyond_dense_reach(problem_fn, nx, ny, beta):
    p = problem_fn()
    op, cond = graded_step_operator(p, p.space_grid(nx, ny), beta)
    rhs = np.random.default_rng(nx + ny).standard_normal(op.grid.n_interior)
    exact = direct_solve_small(op, rhs)

    def rel(x):
        return np.linalg.norm(x - exact) / np.linalg.norm(exact)

    assert rel(cg_solve(op, rhs, tol=1e-14).x) <= 1e-12
    # ||x - x_k|| / ||x|| <= cond * ||r_k|| / ||b|| at the production tolerance
    assert rel(cg_solve(op, rhs).x) <= cond * 1e-10


def test_rejects_non_spd_parameters():
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        ShiftedOperator(sigma=0.0, kappa=1.0, grid=g)
    with pytest.raises(ValueError):
        ShiftedOperator(sigma=1.0, kappa=-1.0, grid=g)


def test_bad_tolerance_rejected():
    op = operator(5)
    with pytest.raises(ValueError):
        cg_solve(op, np.ones(op.grid.n_interior), tol=0.0)
    with pytest.raises(ValueError):
        cg_solve(op, np.ones(op.grid.n_interior), tol=1.0)
