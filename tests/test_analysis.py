import math
import sys

import numpy as np
import pytest

from fisherkpp import analysis, stepper
from fisherkpp.analysis import (
    ConvergenceTable,
    l2_error,
    linf_error,
    observed_order,
    spatial_sweep,
    temporal_sweep,
)
from fisherkpp.problems import example1
from fisherkpp.spatial import SpaceGrid


def test_linf_trivials_and_random_oracle():
    g = np.zeros(16)
    assert linf_error(g, g) == 0.0
    assert linf_error(g + 0.5, g) == 0.5
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal(16), rng.standard_normal(16)
    assert linf_error(a, b) == max(abs(x - y) for x, y in zip(a, b))


def test_l2_trivials_and_summation_oracle():
    grid = SpaceGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    n = grid.n_interior
    z = np.zeros(n)
    assert l2_error(z, z, grid) == 0.0
    d = 0.3
    expect = d * math.sqrt(grid.hx * grid.hy * n)
    assert l2_error(z + d, z, grid) == pytest.approx(expect, rel=1e-14)
    rng = np.random.default_rng(32)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    oracle = math.sqrt(grid.hx * grid.hy * sum((x - y) ** 2 for x, y in zip(a, b)))
    assert l2_error(a, b, grid) == pytest.approx(oracle, rel=1e-13)


def test_l2_keeps_the_bits_of_the_plain_formula_and_scales_exactly():
    grid = SpaceGrid(0.0, 2.0, 0.0, 3.0, 9, 7)
    rng = np.random.default_rng(34)
    for _ in range(50):
        a0 = rng.standard_normal(grid.n_interior)
        b0 = rng.standard_normal(grid.n_interior)
        for scale in (1e-140, 1e-3, 1.0, 1e140):
            a, b = scale * a0, scale * b0
            d = a - b
            plain = math.sqrt(grid.hx * grid.hy * float(d @ d))
            assert l2_error(a, b, grid) == plain
        # at 2**-600 (about 2e-181) the plain formula's squares underflow
        # to zero; a scaling by a power of two must scale the norm exactly
        tiny = l2_error(np.ldexp(a0, -600), np.ldexp(b0, -600), grid)
        assert tiny == math.ldexp(l2_error(a0, b0, grid), -600)


def test_norm_ordering_l2_below_scaled_linf():
    grid = SpaceGrid(0.0, 2.0, 0.0, 3.0, 9, 7)
    rng = np.random.default_rng(33)
    area = (grid.xb - grid.xa) * (grid.yb - grid.ya)
    for _ in range(20):
        a = rng.standard_normal(grid.n_interior)
        b = rng.standard_normal(grid.n_interior)
        assert l2_error(a, b, grid) <= linf_error(a, b) * math.sqrt(area) + 1e-15


def test_shape_mismatch_rejected():
    grid = SpaceGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        linf_error(np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        l2_error(np.zeros(4), np.zeros(4), grid)


def test_observed_order_values():
    assert observed_order(4e-3, 1e-3) == pytest.approx(2.0, abs=1e-13)
    assert observed_order(1e-3, 1e-3) == 0.0
    with pytest.raises(ValueError):
        observed_order(0.0, 1e-3)
    with pytest.raises(ValueError):
        observed_order(1e-3, -1.0)


def test_temporal_sweep_synthetic_quadratic_model():
    # an exact O(dt^2) error model must tabulate orders of exactly 2
    ms = [10, 20, 40, 80]
    table = ConvergenceTable.from_errors(
        "temporal", ms, [(3.0 / m**2, 1.0 / m**2) for m in ms], {})
    assert table.rows[0].order_inf is None and table.rows[0].order_2 is None
    for row in table.rows[1:]:
        assert row.order_inf == pytest.approx(2.0, abs=1e-12)
        assert row.order_2 == pytest.approx(2.0, abs=1e-12)
    assert [r.param for r in table.rows] == ms
    table, = temporal_sweep(example1(), [2.0], [4], 4)
    assert table.meta["grid"] == "uniform"


def test_spatial_sweep_synthetic_quadratic_model():
    ns = [8, 16, 32]
    table = ConvergenceTable.from_errors(
        "spatial", ns, [(5.0 / n**2, 2.0 / n**2) for n in ns], {})
    for row in table.rows[1:]:
        assert row.order_inf == pytest.approx(2.0, abs=1e-12)
    table, = spatial_sweep(example1(), [2.0], [4], 4, gamma=0.75)
    assert table.axis == "spatial"
    assert table.meta["grid"] == "gamma=0.75"


def test_sweep_rejects_non_doubling_lists():
    # the lists are checked before any integration starts
    p = example1()
    with pytest.raises(ValueError):
        temporal_sweep(p, [2.0], [10, 30], 8)
    with pytest.raises(ValueError):
        spatial_sweep(p, [2.0], [8, 12], 50)
    with pytest.raises(ValueError):
        temporal_sweep(p, [2.0], [], 8)


def test_single_row_sweep_has_no_orders():
    table = ConvergenceTable.from_errors("temporal", [10], [(1e-3, 1e-4)], {})
    assert len(table.rows) == 1
    assert table.rows[0].order_inf is None


def test_small_real_sweep_is_deterministic():
    p = example1()
    t1, = temporal_sweep(p, [2.0], [4, 8], 8)
    t2, = temporal_sweep(p, [2.0], [4, 8], 8)
    assert t1.rows == t2.rows


def counted_starts(monkeypatch):
    """Record every start_level call: its grid and times, whether an
    integration is open, and the u^1 it returns."""
    calls, open_runs = [], []
    real_start, real_integrate = stepper.start_level, analysis.integrate

    def start(problem, sgrid, t0, t1, u0):
        u1, record = real_start(problem, sgrid, t0, t1, u0)
        calls.append(((sgrid.nx, sgrid.ny, t0, t1), bool(open_runs), u1))
        return u1, record

    def integrate(*args, **kwargs):
        open_runs.append(args)
        try:
            return real_integrate(*args, **kwargs)
        finally:
            open_runs.pop()

    monkeypatch.setattr(stepper, "start_level", start)
    monkeypatch.setattr(analysis, "integrate", integrate)
    return calls


BETAS = (math.sqrt(2), 2.0, math.pi)


@pytest.mark.parametrize("sweep, refine", [
    (lambda p, betas: temporal_sweep(p, betas, [4, 8, 16], 8, gamma=0.75), "temporal"),
    (lambda p, betas: spatial_sweep(p, betas, [4, 8, 16], 6), "spatial"),
])
def test_betas_of_a_sweep_share_one_start_per_grid(sweep, refine, tmp_path,
                                                   monkeypatch):
    # u^1 does not depend on beta: one sweep over three betas starts each
    # of its three grids once, inside an integration, and every table
    # keeps the bits it has when its beta is swept alone
    p = example1()
    singles = [sweep(p, [beta])[0] for beta in BETAS]
    calls = counted_starts(monkeypatch)
    shared = sweep(p, list(BETAS))
    assert len(calls) == 3
    assert len(set(key for key, _, _ in calls)) == 3
    assert all(inside for _, inside, _ in calls)
    for _, _, u1 in calls:
        assert not u1.flags.writeable
        with pytest.raises(ValueError):
            u1[0] = 1.0
    assert len(shared) == len(BETAS)
    for single, table in zip(singles, shared):
        assert table.axis == refine
        assert table.rows == single.rows
        single.write_csv(tmp_path / "single.csv")
        table.write_csv(tmp_path / "shared.csv")
        assert (tmp_path / "single.csv").read_bytes() == \
            (tmp_path / "shared.csv").read_bytes()


def test_sweep_reads_each_pairs_solve_from_its_shared_start(monkeypatch):
    # on 24 x 24 the start of M = 8 is stiff (rho 58) and that of M = 16 is
    # not (rho 29). The stiffness rule runs once per computed start, in
    # start_level and never in integrate, and every beta's steps follow
    # the shared start's record with one solve call a step
    rule_callers, solves, per_step = [], [], []
    real_rule, real_step = stepper.start_stiffness, stepper.bdf_imex_step

    def rule(*args):
        rule_callers.append(sys._getframe(1).f_code.co_name)
        return real_rule(*args)

    def solving(kind, real):
        def solve(*args, **kwargs):
            solves.append(kind)
            return real(*args, **kwargs)
        return solve

    def step(*args):
        before = len(solves)
        out = real_step(*args)
        per_step.append(solves[before:])
        return out

    monkeypatch.setattr(stepper, "start_stiffness", rule)
    monkeypatch.setattr(stepper, "cg_solve", solving("cg", stepper.cg_solve))
    monkeypatch.setattr(stepper, "direct_solve_small",
                        solving("sine", stepper.direct_solve_small))
    monkeypatch.setattr(stepper, "bdf_imex_step", step)
    tables = temporal_sweep(example1(), list(BETAS), [8, 16], 24)
    assert len(tables) == 3
    assert rule_callers == ["start_level", "start_level"]
    # the sweep loops over the pairs outside and the betas inside
    assert per_step == [["sine"]] * (3 * 7) + [["cg"]] * (3 * 15)


def test_table_csv_and_plot_data(tmp_path):
    table = ConvergenceTable.from_errors(
        "temporal", [10, 20], [(4.0 / m**2, 1.0 / m**2) for m in (10, 20)],
        {"example": "manufactured", "beta": "2"})
    csv = tmp_path / "table.csv"
    table.write_csv(csv, header_lines=["config=abc123"])
    lines = csv.read_text().splitlines()
    assert lines[:3] == ["# config=abc123", "# beta=2", "# example=manufactured"]
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "param,Linf,order_inf,L2,order_2"
    first = lines[header_at + 1].split(",")
    assert first[0] == "10" and first[2] == ""  # no order on first row
    second = lines[header_at + 2].split(",")
    assert float(second[2]) == pytest.approx(2.0)

    plot = tmp_path / "plot.csv"
    table.write_plot_data(plot)
    rows = [l.split(",") for l in plot.read_text().splitlines()[1:]]
    # slope-2 reference is anchored on the first Linf value
    assert float(rows[0][3]) == pytest.approx(math.log10(4.0 / 100.0))
    assert float(rows[1][3]) == pytest.approx(math.log10(4.0 / 100.0) - math.log10(4))
    assert float(rows[1][0]) - float(rows[0][0]) == pytest.approx(1.0)
