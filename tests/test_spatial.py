import numpy as np
import pytest

from fisherkpp.problems import example2
from fisherkpp.spatial import (
    SpaceGrid,
    _second_difference_1d,
    apply_laplacian,
    assemble_dense,
    boundary_contribution,
    eval_interior,
    field_to_csv,
)


def unit_pi_grid(n):
    return SpaceGrid(0.0, np.pi, 0.0, np.pi, n, n)


def test_grid_geometry():
    g = SpaceGrid(-1.0, 3.0, 0.0, 2.0, 8, 5)
    assert g.hx * g.nx == pytest.approx(4.0, abs=1e-15)
    assert g.hy * g.ny == pytest.approx(2.0, abs=1e-15)
    assert g.n_interior == 7 * 4
    assert g.shape == (4, 7)
    assert g.xs[0] == pytest.approx(-1.0 + g.hx)
    assert g.ys[-1] == pytest.approx(2.0 - g.hy)


def test_meshes_built_once_and_read_only():
    g = SpaceGrid(-1.0, 3.0, 0.0, 2.0, 8, 5)
    X, Y = g.meshes()
    want_x, want_y = np.meshgrid(g.xs, g.ys)
    np.testing.assert_array_equal(X, want_x)
    np.testing.assert_array_equal(Y, want_y)
    assert g.meshes()[0] is X and g.meshes()[1] is Y
    with pytest.raises(ValueError):
        X[0, 0] = 7.0
    # evaluated fields are fresh arrays, never views of the shared mesh
    u = eval_interior(lambda x, y: x, g)
    u[0] = 7.0
    assert X[0, 0] == want_x[0, 0]


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        SpaceGrid(0.0, 0.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        SpaceGrid(0.0, 1.0, 0.0, 1.0, 1, 4)


def test_laplacian_of_zero_is_zero():
    g = unit_pi_grid(6)
    assert np.all(apply_laplacian(np.zeros(g.n_interior), g) == 0.0)


def test_sine_mode_is_discrete_eigenvector():
    g = unit_pi_grid(8)
    for k, l in ((1, 1), (2, 3)):
        u = eval_interior(lambda x, y: np.sin(k * x) * np.sin(l * y), g)
        lam = -(4.0 / g.hx**2) * np.sin(k * g.hx / 2.0) ** 2 \
              - (4.0 / g.hy**2) * np.sin(l * g.hy / 2.0) ** 2
        np.testing.assert_allclose(apply_laplacian(u, g), lam * u, atol=1e-12)


def test_matvec_matches_dense_kronecker():
    rng = np.random.default_rng(0)
    g = SpaceGrid(0.0, 1.0, 0.0, 2.0, 7, 7)  # 6x6 interior
    L = assemble_dense(g)
    for _ in range(5):
        u = rng.standard_normal(g.n_interior)
        np.testing.assert_allclose(apply_laplacian(u, g), L @ u,
                                   rtol=1e-13, atol=1e-13 * np.abs(L @ u).max())


def test_dense_1d_slice_is_scaled_tridiagonal():
    a = _second_difference_1d(4, 0.5)
    expect = (1.0 / 0.25) * np.array([
        [-2.0, 1.0, 0.0],
        [1.0, -2.0, 1.0],
        [0.0, 1.0, -2.0],
    ])
    np.testing.assert_array_equal(a, expect)


def test_dense_is_symmetric_negative_definite():
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 6, 5)
    L = assemble_dense(g)
    np.testing.assert_array_equal(L, L.T)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(g.n_interior)
        assert u @ (L @ u) < 0.0


def test_dense_size_guard():
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 200, 200)
    with pytest.raises(ValueError):
        assemble_dense(g)


def test_zero_boundary_contributes_nothing():
    g = unit_pi_grid(7)
    out = boundary_contribution(lambda x, y, t: 0.0, 0.3, g)
    assert np.all(out == 0.0)


def test_laplacian_plus_lifting_exact_on_linear():
    # the 5-point stencil differentiates x + y exactly, so interior values
    # plus the boundary lifting must cancel to rounding
    g = SpaceGrid(0.0, 2.0, -1.0, 1.0, 9, 7)
    u = eval_interior(lambda x, y: x + y, g)
    total = apply_laplacian(u, g) + boundary_contribution(
        lambda x, y, t: x + y, 0.0, g)
    assert np.abs(total).max() <= 1e-12 / g.hx**2


def test_wave_boundary_values_match_direct_evaluation():
    # direct loop evaluation of the closed-form boundary data as oracle
    p = example2()
    g = p.space_grid(10, 10)
    got = boundary_contribution(p.boundary, 0.0, g).reshape(g.shape)

    def wave(x, y):
        return (1.0 + np.exp((x - y) / np.sqrt(12.0))) ** -2.0

    expect = np.zeros(g.shape)
    for j, yv in enumerate(g.ys):
        for i, xv in enumerate(g.xs):
            if i == 0:
                expect[j, i] += wave(g.xa, yv) / g.hx**2
            if i == g.nx - 2:
                expect[j, i] += wave(g.xb, yv) / g.hx**2
            if j == 0:
                expect[j, i] += wave(xv, g.ya) / g.hy**2
            if j == g.ny - 2:
                expect[j, i] += wave(xv, g.yb) / g.hy**2
    np.testing.assert_allclose(got, expect, rtol=1e-14)
    m = 10 - 1  # interior nodes per axis; only the outer ring is touched
    assert np.count_nonzero(got) == 2 * m + 2 * (m - 2)


def test_second_order_truncation_on_smooth_field():
    # lap(sin x sin y) = -2 sin x sin y; halving h quarters the defect
    errs = []
    for n in (16, 32):
        g = unit_pi_grid(n)
        u = eval_interior(lambda x, y: np.sin(x) * np.sin(y), g)
        lap = apply_laplacian(u, g) + boundary_contribution(
            lambda x, y, t: np.sin(x) * np.sin(y), 0.0, g)
        errs.append(np.abs(lap + 2.0 * u).max())
    assert 3.6 <= errs[0] / errs[1] <= 4.4


def test_shape_mismatch_rejected():
    g = unit_pi_grid(6)
    with pytest.raises(ValueError):
        apply_laplacian(np.zeros(7), g)


def test_field_csv_is_column_major(tmp_path):
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 3, 3)
    u = np.arange(4.0)
    path = tmp_path / "field.csv"
    field_to_csv(u, g, path, header_lines=["config=deadbeef"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=deadbeef"
    assert lines[1] == "x,y,value"
    # x varies fastest
    first = [float(tok) for tok in lines[2].split(",")]
    second = [float(tok) for tok in lines[3].split(",")]
    assert first[0] != second[0] and first[1] == second[1]
    assert [row.split(",")[2] for row in lines[2:]] == ["0.0", "1.0", "2.0", "3.0"]
