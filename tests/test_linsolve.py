import math

import numpy as np
import pytest

from fisherkpp import linsolve, spatial
from fisherkpp.linsolve import (
    ShiftedOperator,
    SolveFailure,
    cg_solve,
    direct_solve_small,
)
from fisherkpp.coeffs import nonuniform_coeffs
from fisherkpp.problems import example1, example2
from fisherkpp.spatial import SpaceGrid
from fisherkpp.timegrid import time_grid

from oracles import cg_allocating, dense_laplacian, kronecker_matvec, second_differences


def operator(n, sigma=3.0, kappa=0.5):
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, n, n)
    return ShiftedOperator(sigma=sigma, kappa=kappa, grid=g)


def dense_operator(op):
    """sigma*I - kappa*L as a dense matrix, L from the Kronecker oracle."""
    return op.sigma * np.eye(op.grid.n_interior) - op.kappa * dense_laplacian(op.grid)


def test_zero_rhs_returns_zero_in_zero_iterations():
    op = operator(7)
    out = cg_solve(op, np.zeros(op.grid.n_interior))
    assert out.iterations == 0
    assert np.all(out.x == 0.0)


def test_recovers_manufactured_solution(monkeypatch):
    rng = np.random.default_rng(11)
    op = operator(7)  # 6x6 interior
    v = rng.standard_normal(op.grid.n_interior)
    monkeypatch.setattr(linsolve, "TOL", 1e-12)
    out = cg_solve(op, dense_operator(op) @ v)
    np.testing.assert_allclose(out.x, v, rtol=0, atol=1e-10)


def test_cg_matches_dense_direct_solve(monkeypatch):
    rng = np.random.default_rng(12)
    op = operator(9)  # 8x8 interior
    monkeypatch.setattr(linsolve, "TOL", 1e-12)
    for _ in range(20):
        rhs = rng.standard_normal(op.grid.n_interior)
        x_cg = cg_solve(op, rhs).x
        x_direct = direct_solve_small(op, rhs).x
        assert np.abs(x_cg - x_direct).max() <= 1e-9


def test_identity_limit():
    rng = np.random.default_rng(14)
    op = operator(6, sigma=4.0, kappa=0.0)
    rhs = rng.standard_normal(op.grid.n_interior)
    np.testing.assert_allclose(direct_solve_small(op, rhs).x, rhs / 4.0, rtol=1e-13)
    out = cg_solve(op, rhs)
    np.testing.assert_allclose(out.x, rhs / 4.0, rtol=1e-10)


def test_direct_residual_tiny():
    rng = np.random.default_rng(15)
    op = operator(9)
    rhs = rng.standard_normal(op.grid.n_interior)
    x = direct_solve_small(op, rhs).x
    rel = np.linalg.norm(rhs - dense_operator(op) @ x) / np.linalg.norm(rhs)
    assert rel <= 1e-12


def test_nonconvergence_names_its_iterations(monkeypatch):
    # no residual meets 1e-300, so CG runs to its cap of 10 * (9 + 9)
    rng = np.random.default_rng(16)
    op = operator(9, sigma=1e-6, kappa=1.0)  # badly scaled on purpose
    rhs = rng.standard_normal(op.grid.n_interior)
    monkeypatch.setattr(linsolve, "TOL", 1e-300)
    with pytest.raises(SolveFailure, match=r"stalled at relative residual "
                       r"\S+ after 180 iterations \(target 1e-300\)"):
        cg_solve(op, rhs)


def test_iterates_match_allocating_reference_where_the_residual_rises():
    # a badly scaled operator, on which the residual rises on iterations 7 and 8
    rng = np.random.default_rng(1)
    op = operator(16, sigma=1e-6, kappa=1.0)
    rhs = rng.standard_normal(op.grid.n_interior)
    x, iterations, history = cg_allocating(op.sigma, op.kappa, op.grid, rhs,
                                           np.zeros_like(rhs))
    assert [k for k in range(1, 12) if history[k] > history[k - 1]] == [7, 8]
    out = cg_solve(op, rhs)
    assert out.iterations == iterations
    assert out.residual == history[-1]
    assert np.array_equal(out.x, x)


CG_SIZES = [(2, 2), (3, 5), (16, 16), (47, 33), (160, 160)]


@pytest.mark.parametrize("nx, ny", CG_SIZES)
def test_plan_applies_the_shifted_operator_within_rounding(nx, ny):
    # the weights sigma + 2 kappa (ax + ay), -kappa ax, -kappa ay against
    # sigma v - kappa (I (x) A_x + A_y (x) I) v through the dense Kronecker
    # factors. A term meets at most 8 roundings of eps/2 in the stencil (3 in
    # the centre weight, its product, 4 sums) and 6 on the Kronecker side,
    # each relative to a partial sum of |A| |v|, so to first order the two
    # differ by at most 7 eps (sigma |v| + kappa |L| |v|); measured: 2.7 eps
    g = SpaceGrid(-1.0, 2.0, 0.0, 1.5, nx, ny)
    a_x, a_y = second_differences(g)
    rng = np.random.default_rng(nx * ny)
    out, work = np.empty(g.n_interior), np.empty(g.n_interior)
    for sigma, kappa in ((250.0, 2.0), (3.0, 0.5), (1.0, 0.0), (1e-6, 1.0)):
        v = rng.standard_normal(g.n_interior)
        got = spatial._bind_stencil(v, g, out, work, sigma, kappa)()
        want = sigma * v - kappa * kronecker_matvec(a_x, a_y, v)
        size = sigma * np.abs(v) + kappa * kronecker_matvec(np.abs(a_x), np.abs(a_y),
                                                             np.abs(v))
        assert np.all(np.abs(got - want) <= 7 * np.finfo(float).eps * size)
        if kappa == 0.0:
            assert np.array_equal(got, sigma * v)


@pytest.mark.parametrize("nx, ny", CG_SIZES)
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
        assert out.residual == history[-1]


def test_cg_builds_its_stencil_plan_once(monkeypatch):
    # one bound stencil serves every iteration of a solve, however many
    rng = np.random.default_rng(23)
    op = operator(16, sigma=1.0, kappa=1.0)
    rhs = rng.standard_normal(op.grid.n_interior)
    plans, build = [], linsolve._bind_stencil

    def counting(*args):
        plans.append(args)
        return build(*args)

    monkeypatch.setattr(linsolve, "_bind_stencil", counting)
    iterations = []
    for tol in (1e-2, 1e-6, 1e-12):
        plans.clear()
        monkeypatch.setattr(linsolve, "TOL", tol)
        iterations.append(cg_solve(op, rhs).iterations)
        assert len(plans) == 1
    assert 1 < iterations[0] < iterations[1] < iterations[2]


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


@pytest.mark.parametrize("solve", [
    lambda op, rhs, x0: cg_solve(op, rhs, x0=x0),
    lambda op, rhs, x0: direct_solve_small(op, rhs),
], ids=["cg", "sine"])
@pytest.mark.parametrize("k", [700, 1022])
def test_rhs_whose_norm_overflows_is_solved_scaled_by_a_power_of_two(solve, k):
    # rhs and x0 times 2^k: the 2-norm of rhs overflows while every entry
    # is finite, and the transforms would give NaN. Each solve takes rhs s
    # (CG from x0 s), s a power of two, and divides x and the residual by
    # s, so both come out 2^k times the unscaled ones, bit for bit. At
    # k = 1022, max|rhs| 2^k is above 2^1023 and s = 2^-1024 is subnormal
    rng = np.random.default_rng(19)
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 9, 7)
    op = ShiftedOperator(sigma=3.0, kappa=0.5, grid=g)
    rhs = rng.standard_normal(g.n_interior)
    x0 = rng.standard_normal(g.n_interior)
    big = 2.0**k
    assert math.sqrt(np.vdot(rhs * big, rhs * big)) == math.inf
    want = solve(op, rhs, x0)
    got = solve(op, rhs * big, x0 * big)
    assert got.iterations == want.iterations
    assert np.array_equal(got.x, want.x * big)
    assert got.residual == want.residual * big
    assert 0.0 < want.residual <= linsolve.TOL * np.linalg.norm(rhs)


def test_direct_solve_checks_the_solve_to_cgs_tolerance(monkeypatch):
    rng = np.random.default_rng(20)
    op = operator(9)
    rhs = rng.standard_normal(op.grid.n_interior)
    out = direct_solve_small(op, rhs)
    x = out.x
    assert out.iterations == 0
    assert np.array_equal(x, spatial.from_sine(
        spatial.to_sine(rhs, op.grid)
        / (op.sigma - op.kappa * op.grid.laplacian_eigenvalues), op.grid))
    res = out.residual
    assert res <= 1e-13 * np.linalg.norm(rhs)
    dense = np.linalg.norm(rhs - dense_operator(op) @ x)
    assert abs(res - dense) <= 1e-14 * np.linalg.norm(rhs)
    assert direct_solve_small(op, np.zeros_like(rhs)).residual == 0.0
    # an inexact or NaN solution from the transforms fails the check
    real_from_sine = spatial.from_sine
    monkeypatch.setattr(linsolve, "from_sine",
                        lambda v, g: real_from_sine(v, g) * (1.0 + 1e-6))
    with pytest.raises(SolveFailure, match=r"missed relative residual 1e-10: \S+"):
        direct_solve_small(op, rhs)

    def with_nan(v, g):
        bad = real_from_sine(v, g)
        bad[4] = np.nan
        return bad

    monkeypatch.setattr(linsolve, "from_sine", with_nan)
    with pytest.raises(SolveFailure, match="residual is not finite"):
        direct_solve_small(op, rhs)


def test_deterministic_given_same_inputs():
    rng = np.random.default_rng(17)
    op = operator(9)
    rhs = rng.standard_normal(op.grid.n_interior)
    x0 = rng.standard_normal(op.grid.n_interior)
    a = cg_solve(op, rhs, x0=x0)
    b = cg_solve(op, rhs, x0=x0)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.residual == b.residual


def test_iterations_grow_under_refinement():
    # fixed (sigma, kappa): conditioning worsens with the grid
    rng = np.random.default_rng(18)
    iters = []
    for n in (8, 16, 32):
        op = operator(n, sigma=1.0, kappa=1.0)
        rhs = rng.standard_normal(op.grid.n_interior)
        iters.append(cg_solve(op, rhs).iterations)
    assert iters[0] < iters[1] < iters[2]


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 9), (47, 33)])
@pytest.mark.parametrize("sigma", [3.0, 1e-6])
def test_direct_matches_dense_kronecker_solve(nx, ny, sigma):
    g = SpaceGrid(0.0, 1.0, 0.0, 2.0, nx, ny)
    op = ShiftedOperator(sigma=sigma, kappa=0.5, grid=g)
    rhs = np.random.default_rng(nx * ny).standard_normal(g.n_interior)
    want = np.linalg.solve(sigma * np.eye(g.n_interior) - 0.5 * dense_laplacian(g), rhs)
    x = direct_solve_small(op, rhs).x
    assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)


def graded_step_operator(problem, grid, beta):
    """The shifted operator of the worst-conditioned step of the graded
    M = 80, gamma = 0.75 grid, and its 2-norm condition number."""
    lam = grid.laplacian_eigenvalues
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
def test_cg_agrees_with_exact_solve_beyond_dense_reach(problem_fn, nx, ny, beta,
                                                      monkeypatch):
    p = problem_fn()
    op, cond = graded_step_operator(p, p.space_grid(nx, ny), beta)
    rhs = np.random.default_rng(nx + ny).standard_normal(op.grid.n_interior)
    exact = direct_solve_small(op, rhs).x

    def rel(x):
        return np.linalg.norm(x - exact) / np.linalg.norm(exact)

    with monkeypatch.context() as m:
        m.setattr(linsolve, "TOL", 1e-14)
        assert rel(cg_solve(op, rhs).x) <= 1e-12
    # ||x - x_k|| / ||x|| <= cond * ||r_k|| / ||b|| at the production tolerance
    assert rel(cg_solve(op, rhs).x) <= cond * 1e-10


def test_rejects_non_spd_parameters():
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        ShiftedOperator(sigma=0.0, kappa=1.0, grid=g)
    with pytest.raises(ValueError):
        ShiftedOperator(sigma=1.0, kappa=-1.0, grid=g)

