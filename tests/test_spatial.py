import math

import numpy as np
import pytest
from scipy.fft import dstn, idstn

from fisherkpp.analysis import exact_final_field
from fisherkpp.problems import example1, example2
from fisherkpp.spatial import (
    SpaceGrid,
    _laplacian_plan,
    _stencil,
    apply_laplacian,
    boundary_contribution,
    eval_interior,
    field_to_csv,
    from_sine,
    to_sine,
)
from fisherkpp.stepper import integrate
from fisherkpp.timegrid import time_grid

from oracles import (
    dense_laplacian,
    field_to_csv_per_node,
    laplacian_slices,
    lifting_per_edge,
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


def test_axes_built_once_and_read_only():
    g = SpaceGrid(-1.0, 3.0, 0.0, 2.0, 8, 5)
    assert g.xs is g.xs and g.ys is g.ys
    for shared in (g.xs, g.ys):
        with pytest.raises(ValueError):
            shared[0] = 7.0
    # evaluated fields are fresh arrays, never views of the shared axes
    x0 = g.xs[0]
    u = eval_interior(lambda x, y: x, g)
    u[0] = 7.0
    assert g.xs[0] == x0


@pytest.mark.parametrize("problem_fn", [example1, example2])
@pytest.mark.parametrize("nx, ny", [(16, 16), (48, 48), (24, 20)])
def test_eval_interior_matches_full_mesh_evaluation(problem_fn, nx, ny):
    # sampling on broadcast axes must give the very numbers of the mesh
    p = problem_fn()
    g = p.space_grid(nx, ny)
    X, Y = np.meshgrid(g.xs, g.ys)
    for t in (0.0, 0.37, 1.0):
        for fn in (p.source, p.exact, p.boundary):
            if fn is not None:
                want = np.broadcast_to(fn(X, Y, t), g.shape).ravel()
                assert np.array_equal(eval_interior(fn, g, t=t), want)
    assert np.array_equal(eval_interior(p.initial, g),
                          np.broadcast_to(p.initial(X, Y), g.shape).ravel())


@pytest.mark.parametrize("make", [
    lambda x, y: 0.75,
    lambda x, y: -0.0,
    lambda x, y: np.sin(x),
    lambda x, y: np.cos(y),
    lambda x, y: np.sin(x) * np.cos(y),
    lambda x, y: 3,
    lambda x, y: np.arange(x.size),
    lambda x, y: np.arange(y.size)[:, None] * np.arange(x.size),
    lambda x, y: x > 1.0,
    lambda x, y: True,
], ids=["scalar", "negative-zero", "row", "column", "full", "int", "int-row",
        "int-full", "bool-row", "bool"])
def test_eval_interior_equals_broadcast_form(make):
    # each return is cast and broadcast into a new array, exactly as
    # np.broadcast_to(np.asarray(vals, dtype=float), shape) would give it
    g = SpaceGrid(-1.0, 2.0, 0.0, 1.5, 7, 5)
    returned = []

    def fn(x, y):
        returned.append(make(x, y))
        return returned[-1]

    got = eval_interior(fn, g)
    want = np.broadcast_to(np.asarray(returned[-1], dtype=float), g.shape).ravel()
    assert got.dtype == np.float64 and got.shape == (g.n_interior,)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.flags.writeable and got.flags.c_contiguous
    assert not np.shares_memory(got, returned[-1])


def test_eval_interior_never_aliases_a_full_shape_return():
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 4, 6)
    field = np.ones(g.shape)
    got = eval_interior(lambda x, y, t: field, g, t=0.0)
    got[0] = 5.0
    assert field[0, 0] == 1.0


def test_laplacian_eigenvalues_diagonalise_the_stencil():
    g = SpaceGrid(-1.0, 2.5, 0.0, 1.2, 24, 20)
    lam = g.laplacian_eigenvalues
    assert lam.shape == g.shape
    assert np.all(lam < 0.0)
    u = np.random.default_rng(3).standard_normal(g.n_interior)
    spectral = idstn(lam * dstn(u.reshape(g.shape), type=1, norm="ortho"),
                     type=1, norm="ortho").ravel()
    want = apply_laplacian(u, g)
    assert np.abs(spectral - want).max() <= 1e-12 * np.abs(want).max()
    # the library's transform pair is the same DST-I, bit for bit
    assert np.array_equal(from_sine(lam * to_sine(u, g), g), spectral)


def test_laplacian_eigenvalues_are_cached_read_only():
    g = SpaceGrid(0.0, 1.0, 0.0, 2.0, 7, 5)
    lam = g.laplacian_eigenvalues
    assert g.laplacian_eigenvalues is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0, 0] = 0.0


def test_sine_transform_pair_is_orthonormal():
    g = SpaceGrid(0.0, 1.0, 0.0, 2.0, 9, 6)
    u = np.random.default_rng(4).standard_normal(g.n_interior)
    v = to_sine(u, g)
    assert v.shape == g.shape
    assert abs(np.linalg.norm(v) - np.linalg.norm(u)) <= 1e-14 * np.linalg.norm(u)
    np.testing.assert_allclose(from_sine(v, g), u, rtol=0, atol=1e-14)
    # sine mode (i, j) = (2, 3) sits in entry [j - 1, i - 1] alone
    w = to_sine(eval_interior(
        lambda x, y: np.sin(2 * np.pi * x) * np.sin(1.5 * np.pi * y), g), g)
    others = np.ones(g.shape, dtype=bool)
    others[2, 1] = False
    assert np.abs(w[others]).max() <= 1e-13 * abs(w[2, 1])


def test_grid_rejects_degenerate():
    # finite corners whose extent overflows gave hx = inf
    for corners in ((0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.5),
                    (0.0, math.nan, 0.0, 1.0), (math.nan, 1.0, 0.0, 1.0),
                    (0.0, 1.0, -math.inf, 1.0), (0.0, math.inf, 0.0, 1.0),
                    (-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308)):
        with pytest.raises(ValueError, match=(
                "domain rectangle must be finite with positive extent")):
            SpaceGrid(*corners, 4, 4)
    with pytest.raises(ValueError, match=(
            "need at least 2 cells per axis, got nx=1, ny=8")):
        SpaceGrid(0.0, 1.0, 0.0, 1.0, 1, 8)
    # a count that is not an integer built a grid with n_interior == 10.5
    with pytest.raises(ValueError, match=(
            r"cell counts must be integers, got nx=4\.5, ny=4")):
        SpaceGrid(0.0, 1.0, 0.0, 1.0, 4.5, 4)
    assert SpaceGrid(0.0, 1.0, 0.0, 1.0, 2, np.int64(2)).n_interior == 1


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
    L = dense_laplacian(g)
    for _ in range(5):
        u = rng.standard_normal(g.n_interior)
        np.testing.assert_allclose(apply_laplacian(u, g), L @ u,
                                   rtol=1e-13, atol=1e-13 * np.abs(L @ u).max())


def test_dense_is_symmetric_negative_definite():
    g = SpaceGrid(0.0, 1.0, 0.0, 1.0, 6, 5)
    L = dense_laplacian(g)
    np.testing.assert_array_equal(L, L.T)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(g.n_interior)
        assert u @ (L @ u) < 0.0


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


# (domain, boundary data): both examples, a time-dependent boundary and a
# scalar-valued zero boundary
BOUNDARIES = {
    "manufactured": (example1().domain, example1().boundary),
    "wave": (example2().domain, example2().boundary),
    "exp-cos": ((-1.0, 2.5, 0.0, 1.2),
                lambda x, y, t: np.exp(-t * x) * np.cos(3.0 * y + t)),
    "zero": ((0.0, 1.0, 0.0, 1.0), lambda x, y, t: 0.0),
}
RING_SIZES = [(2, 2), (3, 2), (2, 5), (24, 20), (161, 97)]


@pytest.mark.parametrize("nx, ny", RING_SIZES)
@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_lifting_and_laplacian_match_slice_forms_bit_for_bit(name, nx, ny):
    domain, bc = BOUNDARIES[name]
    g = SpaceGrid(*domain, nx, ny)
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(boundary_contribution(bc, t, g),
                              lifting_per_edge(bc, t, g))
    rng = np.random.default_rng(nx * ny)
    for _ in range(3):
        u = rng.standard_normal(g.n_interior) * 10.0 ** rng.integers(-3, 4)
        # about 40% +0.0 and 20% -0.0, so that sums of signed zeros occur
        draw = rng.random(g.n_interior)
        u[draw < 0.6] = 0.0
        u[draw < 0.2] = -0.0
        u_before = u.copy()
        want = laplacian_slices(u, g).view(np.uint64)
        assert np.array_equal(apply_laplacian(u, g).view(np.uint64), want)
        # the path CG runs on its own buffers writes every entry of them
        out, work = np.full(g.n_interior, np.nan), np.full(g.n_interior, np.nan)
        assert _stencil(_laplacian_plan(u, g, out, work, 0.0, -1.0)) is out
        assert np.array_equal(out.view(np.uint64), want)
        assert np.array_equal(u.view(np.uint64), u_before.view(np.uint64))


def test_lifting_evaluates_bc_once_on_the_ring():
    g = SpaceGrid(-1.0, 2.5, 0.0, 1.2, 24, 20)
    shapes = []

    def bc(x, y, t):
        shapes.append((np.shape(x), np.shape(y)))
        return x * y + t

    boundary_contribution(bc, 0.3, g)
    assert shapes == [((2 * 19 + 2 * 23,), (2 * 19 + 2 * 23,))]
    ring = g.boundary_ring
    assert g.boundary_ring is ring
    with pytest.raises(ValueError):
        ring.weight[0] = 0.0


def assert_writes_as_per_node_writer(u, grid, tmp_path):
    header = ["config=deadbeef", "second line"]
    field_to_csv(u, grid, tmp_path / "new.csv", header_lines=header)
    field_to_csv_per_node(u, grid, tmp_path / "old.csv", header_lines=header)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_field_csv_matches_per_node_writer(tmp_path):
    g = SpaceGrid(-1.0, 2.5, 0.0, 1.2, 160, 163)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.n_interior) * 10.0 ** rng.integers(-300, 300, g.n_interior)
    u[[0, 17, 4000, -1]] = [0.0, -0.0, 1e300, 5e-324]
    assert_writes_as_per_node_writer(u, g, tmp_path)


def test_field_csv_of_the_exact_wave_field(tmp_path):
    # the planar front repeats its values along x - y: about 1% distinct
    problem = example2()
    g = problem.space_grid(160, 160)
    u = exact_final_field(problem, g, problem.T)
    assert np.unique(u).size < 0.02 * u.size
    assert_writes_as_per_node_writer(u, g, tmp_path)


def test_field_csv_of_a_solved_wave_field(tmp_path):
    problem = example2()
    g = problem.space_grid(40, 40)
    u, _ = integrate(problem, time_grid(problem.T, 10, 0.75), g, np.pi)
    assert np.unique(u).size < 0.9 * u.size
    assert_writes_as_per_node_writer(u, g, tmp_path)


def test_field_csv_of_special_values(tmp_path):
    g = SpaceGrid(0.0, 1.0, -2.0, 3.0, 7, 6)
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFF00000DEADBEEF], dtype=np.uint64)
    special = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1e300, -1e300, -1.2345678901234567e-100,
         -0.00012345678901234568, 1e16, 0.1],
        nan_bits.view(np.float64),
    ])
    u = np.resize(special, g.n_interior)
    assert_writes_as_per_node_writer(u, g, tmp_path)
    # -0.0 and 0.0 keep their own text; every NaN reads back as nan
    values = [line.split(",")[2] for line in
              (tmp_path / "new.csv").read_text().splitlines()[3:]]
    assert values[:4] == ["0.0", "-0.0", "inf", "-inf"]
    assert values[14:18] == ["nan"] * 4


def test_field_csv_of_a_strided_view(tmp_path):
    g = SpaceGrid(-1.0, 2.5, 0.0, 1.2, 24, 20)
    rng = np.random.default_rng(11)
    base = np.round(rng.standard_normal(2 * g.n_interior), 2)
    u = base[::2]
    assert not u.flags.c_contiguous
    assert_writes_as_per_node_writer(u, g, tmp_path)
