import numpy as np
import pytest

from fisherkpp.linsolve import (
    ShiftedOperator,
    SolveFailure,
    cg_solve,
    direct_solve_small,
)
from fisherkpp.spatial import SpaceGrid


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


def test_direct_size_guard():
    op = operator(200)
    with pytest.raises(ValueError, match="limited to"):
        direct_solve_small(op, np.zeros(op.grid.n_interior))


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
