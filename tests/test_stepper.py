import ast
import dataclasses
import itertools
import math
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fisherkpp.coeffs import CoefficientError, nonuniform_coeffs
from fisherkpp import linsolve, spatial, stepper
from fisherkpp.linsolve import CGResult, SolveFailure, cg_solve, direct_solve_small
from fisherkpp.problems import (
    PQ_PRODUCT,
    Nonlinearity,
    ProblemSpec,
    example1,
    example2,
    f_eval,
)
from fisherkpp.spatial import boundary_contribution, eval_interior
from fisherkpp.stepper import (
    ETD_STIFFNESS,
    InitializationError,
    bdf_imex_step,
    etd_init,
    integrate,
    phi_functions,
    rk_init,
    start_stiffness,
)
from fisherkpp.timegrid import TimeGrid, uniform_grid, graded_grid
from fisherkpp.analysis import exact_final_field, linf_error

from oracles import (
    cg_allocating,
    etdrk4_fixed,
    rk45,
    step_rhs_allocating,
    unfolded_operator_slices,
)

LOGISTIC = Nonlinearity("logistic_p", p=1)


def quiescent_problem():
    zero2 = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    zero3 = lambda x, y, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    return ProblemSpec(
        name="quiescent", domain=(0.0, 1.0, 0.0, 1.0), T=1.0, D=1.0, K=1.0,
        nonlinearity=LOGISTIC, boundary=zero3, initial=zero2,
    )


# ------------------------------------------------------------------ rk_init

def test_rk_init_keeps_equilibrium():
    p = quiescent_problem()
    g = p.space_grid(8, 8)
    u1, _ = rk_init(p, g, 0.0, 0.25, np.zeros(g.n_interior))
    assert np.all(u1 == 0.0)


def test_rk_init_nodewise_exponential_decay():
    # D = 0, K = -1 with f(u) = u makes every node an independent u' = -u
    p = ProblemSpec(
        name="decay", domain=(0.0, 1.0, 0.0, 1.0), T=1.0, D=0.0, K=-1.0,
        nonlinearity=Nonlinearity(PQ_PRODUCT, p=1, q=0),
        boundary=lambda x, y, t: 0.0, initial=lambda x, y: 0.0,
    )
    g = p.space_grid(6, 6)
    rng = np.random.default_rng(21)
    u0 = rng.uniform(0.5, 2.0, g.n_interior)
    u1, _ = rk_init(p, g, 0.0, 0.8, u0)
    np.testing.assert_allclose(u1, np.exp(-0.8) * u0, rtol=1e-9)


def test_rk_init_reaches_spatial_accuracy_on_manufactured_problem():
    # over a short window the starter error is the O(h^2) spatial error;
    # magnitudes frozen from a verified run, with margin
    p = example1()
    t1 = 1.0 / 64.0
    errs = {}
    for n in (8, 16):
        g = p.space_grid(n, n)
        u1, _ = rk_init(p, g, 0.0, t1, eval_interior(p.initial, g))
        errs[n] = linf_error(u1, exact_final_field(p, g, t1))
    assert errs[16] <= 2e-6
    assert 3.5 <= errs[8] / errs[16] <= 4.5


def test_rk_init_rejects_backward_interval():
    p = quiescent_problem()
    g = p.space_grid(6, 6)
    with pytest.raises(ValueError):
        rk_init(p, g, 0.5, 0.5, np.zeros(g.n_interior))


def test_starter_names_reaction_failure():
    # u**0.5 is undefined for the negative initial data
    p = ProblemSpec(
        name="negative", domain=(0.0, 1.0, 0.0, 1.0), T=1.0, D=1.0, K=1.0,
        nonlinearity=Nonlinearity("logistic_p", p=0.5),
        boundary=lambda x, y, t: -0.1, initial=lambda x, y: -0.1,
    )
    g = p.space_grid(5, 5)
    with pytest.raises(InitializationError,
                       match=r"starter integration failed on \[0.0, 0.25\]") as info:
        integrate(p, uniform_grid(1.0, 4), g, 2.0)
    assert isinstance(info.value.__cause__, ValueError)
    assert "p=0.5" in str(info.value.__cause__)


def blowup_start():
    # u' = u^2 from u = 1000 blows up at t = 1/1000, inside the interval,
    # driving the adaptive step below machine resolution
    p = ProblemSpec(
        name="blowup", domain=(0.0, 1.0, 0.0, 1.0), T=1.0, D=0.0, K=1.0,
        nonlinearity=Nonlinearity(PQ_PRODUCT, p=2, q=0),
        boundary=lambda x, y, t: 0.0, initial=lambda x, y: 0.0,
    )
    g = p.space_grid(5, 5)
    return p, g, 0.0, 0.5, np.full(g.n_interior, 1000.0)


def test_rk_init_reports_step_size_underflow():
    p, g, t0, t1, u0 = blowup_start()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InitializationError, match=(
                r"starter integration failed on \[0.0, 0.5\]: step size "
                r"\d\.\d{3}e-\d+ fell below 10 float spacings at "
                r"t=0\.000999\d+ after \d+ right-hand-side evaluations$")):
            rk_init(p, g, t0, t1, u0)


def graded_start(problem, n, m):
    g = problem.space_grid(n, n)
    nodes = graded_grid(problem.T, m, 0.75).nodes
    return problem, g, nodes[0], nodes[1], eval_interior(problem.initial, g)


def wave_24x20_start():
    p = example2()
    g = p.space_grid(24, 20)
    return p, g, 0.3, 0.55, eval_interior(p.exact, g, t=0.3)


@pytest.mark.parametrize("start, tol", [
    (lambda: graded_start(example2(), 160, 80), 1e-10),  # the wave-solve start
    (lambda: graded_start(example1(), 16, 20), 1e-10),   # an mms-sweep-graded start
    (wave_24x20_start, 1e-13),
    (blowup_start, 1e-10),
], ids=["wave-160", "manufactured-16", "wave-24x20-tol1e-13", "blowup"])
def test_dp54_matches_scipy_rk45_bit_for_bit(start, tol):
    p, g, t0, t1, u0 = start()
    rhs = stepper.mol_rhs(p, g)
    with np.errstate(over="ignore", invalid="ignore"):
        got = stepper.solve_ivp(rhs, (t0, t1), u0, tol, tol)
        want = rk45(rhs, (t0, t1), u0, tol, tol)
    assert got.success == want.success == (p.name != "blowup")
    assert got.nfev == want.nfev
    assert np.array_equal(got.y, want.y[:, -1])


def test_rk_init_runs_dp54_at_tolerance_1e_10():
    # a non-stiff wave start, taken by the DP5(4) starter in production:
    # u^1 and nfev are those of rtol = atol = 1e-10, which a neighbouring
    # tolerance does not reproduce
    p = example2()
    g = p.space_grid(24, 24)
    t0, t1 = uniform_grid(p.T, 8).nodes[:2]
    u0 = eval_interior(p.initial, g)
    u1, rec = stepper.start_level(p, g, t0, t1, u0)
    assert rec.method == "dp54"
    rhs = stepper.mol_rhs(p, g)
    want = stepper.solve_ivp(rhs, (t0, t1), u0, 1e-10, 1e-10)
    assert np.array_equal(u1, want.y) and rec.nfev == want.nfev
    for tol in (1e-9, 1e-11):
        other = stepper.solve_ivp(rhs, (t0, t1), u0, tol, tol)
        assert other.nfev != want.nfev and not np.array_equal(other.y, want.y)


def test_dp54_fails_on_a_right_hand_side_that_is_not_finite():
    # scipy's RK45 loops forever here: its NaN step never compares below
    # the minimum step
    with np.errstate(invalid="ignore"):
        sol = stepper.solve_ivp(lambda t, y: np.full_like(y, np.nan),
                                (0.0, 1.0), np.ones(3), 1e-10, 1e-10)
    assert not sol.success
    assert sol.message == ("step size nan fell below 10 float spacings at "
                           "t=0.0 after 2 right-hand-side evaluations")


# ----------------------------------------------------------------- etd_init

@pytest.mark.parametrize("z", [0.0, -1e-12, -1e-3, -0.5, -0.999999, -1.0,
                               -1.000001, -3.0, -40.0, -1e4, -1e12])
def test_phi_functions_match_high_precision(z):
    with mp.workdps(80):  # the closed form cancels 36 digits at z = -1e-12
        zm = mp.mpf(z)
        # phi_k(z) = (e^z - sum_{j<k} z^j / j!) / z^k, phi_k(0) = 1/k!
        want = [1 / mp.factorial(k) if z == 0 else
                (mp.exp(zm) - sum(zm**j / mp.factorial(j) for j in range(k))) / zm**k
                for k in (1, 2, 3)]
    got = phi_functions(np.array([z]))
    for k in range(3):
        assert got[k][0] == pytest.approx(float(want[k]), rel=1e-14, abs=1e-300)


def test_phi_functions_mixed_array_matches_single_values():
    # small and large |z| in one call: the Taylor entries must land where
    # they belong
    zs = [-40.0, 0.0, -1e12, -1e-3, -1.0, -0.5, -3.0, -1e-12, -1e4,
          -0.999999, -1.000001]
    mixed = phi_functions(np.array(zs))
    for i, z in enumerate(zs):
        single = phi_functions(np.array([z]))
        for k in range(3):
            assert mixed[k][i] == single[k][0]


def etd_levels(monkeypatch, problem, g, t0, t1, u0):
    """etd_init's result, its record and the substep counts it marched,
    read off the times at which it samples the Dirichlet lifting: t0
    once, then t0 + k h / 2 for k = 1 .. 2n at each count n."""
    times = []

    def recording(bc, t, grid):
        times.append(t)
        return spatial.boundary_contribution(bc, t, grid)

    monkeypatch.setattr(stepper, "boundary_contribution", recording)
    u, rec = etd_init(problem, g, t0, t1, u0)
    assert times[0] == t0
    levels, count = [], 0
    for t, t_next in zip(times[1:], [*times[2:], -math.inf]):
        count += 1
        if t_next < t:
            levels.append(count // 2)
            count = 0
    return u, rec, levels


def stage_count(levels):
    # the shared first stage, then 4n - 1 more at each count n
    return 1 + sum(4 * n - 1 for n in levels)


@pytest.mark.parametrize("case, levels", [
    ("manufactured-48", [1, 2, 8, 16]),
    ("wave-24x20", [1, 2, 4, 8]),
], ids=["manufactured-48", "wave-24x20"])
def test_etd_init_matches_dp5_oracle(monkeypatch, case, levels):
    # the wave case has time-dependent Dirichlet data and hx != hy
    if case == "manufactured-48":
        p = example1()
        g, t0, t1 = p.space_grid(48, 48), 0.0, 1.0 / 6.0
    else:
        p = example2()
        g, t0, t1 = p.space_grid(24, 20), 0.3, 0.55
    u0 = eval_interior(p.exact, g, t=t0)
    u_etd, rec, marched = etd_levels(monkeypatch, p, g, t0, t1, u0)
    u_dp5 = stepper.solve_ivp(stepper.mol_rhs(p, g), (t0, t1), u0, 1e-13, 1e-13).y
    assert np.abs(u_etd - u_dp5).max() <= 1e-10
    assert rec.method == "etdrk4" and rec.estimate <= 1e-9
    assert marched == levels and rec.substeps == levels[-1]
    assert rec.nfev == stage_count(levels)


def test_etd_init_samples_data_once_per_stage_time(monkeypatch):
    # the mms-starter interval: the estimate at 2 substeps, 5.8e-7, is
    # predicted to fall under 1e-9 at 16, so 4 is skipped
    p = example1()
    g, t0, t1 = p.space_grid(48, 48), 0.0, 1.0 / 6.0
    seen = {"lifting": [], "source": [], "reaction": []}

    def lifting(bc, t, grid):
        seen["lifting"].append(t)
        return spatial.boundary_contribution(bc, t, grid)

    def source(fn, grid, t=None):
        seen["source"].append(t)
        return eval_interior(fn, grid, t=t)

    def reaction(u, nonlinearity):
        seen["reaction"].append(u.copy())
        return f_eval(u, nonlinearity)

    monkeypatch.setattr(stepper, "boundary_contribution", lifting)
    monkeypatch.setattr(stepper, "eval_interior", source)
    monkeypatch.setattr(stepper, "f_eval", reaction)
    u0 = np.zeros(g.n_interior)
    u, rec = etd_init(p, g, t0, t1, u0)
    levels = [1, 2, 8, 16]
    times = [t0] + [t0 + k * ((t1 - t0) / n) / 2
                    for n in levels for k in range(1, 2 * n + 1)]
    assert seen["lifting"] == times and seen["source"] == times
    assert rec.substeps == 16
    assert rec.nfev == len(seen["reaction"]) == stage_count(levels)
    # the stage at (t0, u0) is evaluated once, not once per substep count
    first = seen["reaction"][0]
    assert sum(np.array_equal(v, first) for v in seen["reaction"]) == 1
    # the extrapolation of the plain scheme at the last two counts
    u8, u16 = (etdrk4_fixed(p, g, t0, t1, u0, n) for n in (8, 16))
    assert np.abs(u - (u16 + (u16 - u8) / 15.0)).max() <= 1e-14


def test_etd_init_doubles_when_the_estimate_falls_slower_than_fourth_order(monkeypatch):
    # a kink in time at t = 0.1 makes ETDRK4 second order: the estimates
    # fall by about 4 a doubling, so the count predicted from the estimate
    # at 2 substeps misses the target and the start doubles on from there
    base = example1()

    def kinked(x, y, t):
        return base.source(x, y, t) + 0.003 * abs(t - 0.1) * np.sin(x) * np.sin(y)

    p = ProblemSpec(**{**base.__dict__, "source": kinked})
    g, t0, t1 = p.space_grid(32, 32), 0.0, 1.0 / 6.0
    u0 = np.zeros(g.n_interior)
    u, rec, levels = etd_levels(monkeypatch, p, g, t0, t1, u0)
    assert levels == [1, 2, 8, 16, 32]
    u8, u16, u32 = (etdrk4_fixed(p, g, t0, t1, u0, n) for n in (8, 16, 32))
    est16, est32 = (float(np.abs(fine - coarse).max()) / 15.0
                    for coarse, fine in ((u8, u16), (u16, u32)))
    assert est16 > 1e-9 and est32 > est16 / 2**4
    assert rec.estimate == pytest.approx(est32, rel=1e-6) and rec.estimate <= 1e-9
    assert np.abs(u - (u32 + (u32 - u16) / 15.0)).max() <= 1e-14


def test_etd_init_computes_each_phi_table_once(monkeypatch):
    # one table per substep size (t1 - t0) / 2^k, down to half the final one
    seen = []

    def counting(z):
        seen.append(z.copy())
        return phi_functions(z)

    monkeypatch.setattr(stepper, "phi_functions", counting)
    p = example1()
    g = p.space_grid(48, 48)
    _, rec = etd_init(p, g, 0.0, 1.0 / 6.0, np.zeros(g.n_interior))
    assert rec.substeps == 16
    assert len(seen) == math.log2(rec.substeps) + 2
    for coarse, fine in zip(seen, seen[1:]):
        assert np.array_equal(fine, coarse / 2)


def benchmark_start(problem, n, tgrid):
    """Stiffness of the first step of a run on an n x n grid."""
    g = problem.space_grid(n, n)
    return start_stiffness(problem, g, tgrid.nodes[0], tgrid.nodes[1])


def test_start_selection_sides_of_benchmark_intervals():
    # mms-starter: manufactured N = 48, uniform M = 6 -> ETDRK4
    rho = benchmark_start(example1(), 48, uniform_grid(1.0, 6))
    assert rho == pytest.approx(311.3, abs=0.1) and rho > ETD_STIFFNESS
    # wave-solve: wave N = 160, graded M = 80, gamma 0.75 -> DP5(4)
    rho = benchmark_start(example2(), 160, graded_grid(1.0, 80, 0.75))
    assert rho == pytest.approx(0.09, abs=0.01) and rho <= ETD_STIFFNESS
    # mms-sweep-graded: manufactured N = 16, graded M = 20, 40, 80 -> DP5(4)
    rhos = [benchmark_start(example1(), 16, graded_grid(1.0, m, 0.75))
            for m in (20, 40, 80)]
    assert max(rhos) == pytest.approx(6.6, abs=0.1) and max(rhos) <= ETD_STIFFNESS


def test_integrate_reports_the_starter_that_ran():
    p = example1()
    _, stiff = integrate(p, uniform_grid(1.0, 4), p.space_grid(32, 32), 2.0)
    assert stiff.starter.method == "etdrk4"
    assert stiff.starter.header().startswith("starter=etdrk4 nfev=")
    assert "substeps=" in stiff.starter.header()
    p = example2()
    _, wave = integrate(p, uniform_grid(1.0, 4), p.space_grid(10, 10), 2.0)
    assert wave.starter.method == "dp54" and wave.starter.substeps is None
    assert wave.starter.header() == f"starter=dp54 nfev={wave.starter.nfev}"


def raising_source(x, y, t):
    raise ZeroDivisionError("source blew up")


@pytest.mark.parametrize("source, cause", [
    (raising_source, ZeroDivisionError),
    (lambda x, y, t: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan),
     FloatingPointError),
])
def test_etd_starter_names_forcing_failure(source, cause):
    p = ProblemSpec(**{**example1().__dict__, "source": source})
    g = p.space_grid(16, 16)
    tg = uniform_grid(1.0, 2)
    assert start_stiffness(p, g, 0.0, 0.5) > ETD_STIFFNESS
    with pytest.raises(InitializationError,
                       match=r"starter integration failed on \[0.0, 0.5\]") as info:
        integrate(p, tg, g, 2.0)
    assert isinstance(info.value.__cause__, cause)


def test_etd_starter_reports_estimate_when_substeps_run_out(monkeypatch):
    monkeypatch.setattr(stepper, "ETD_MAX_SUBSTEPS", 2)
    p = example1()
    g = p.space_grid(48, 48)
    with pytest.raises(InitializationError,
                       match=r"failed on \[0.0, 0.5\]: ETDRK4 error estimate "
                             r"\S+ still above target after 2 substeps"):
        etd_init(p, g, 0.0, 0.5, np.zeros(g.n_interior))


def test_etd_starter_reports_the_measured_estimate_when_the_jump_is_capped(monkeypatch):
    # the estimate at 2 substeps predicts 16, past a cap of 8: the start
    # marches 4 and 8 and reports the estimate it measured at 8, not the
    # one predicted there
    monkeypatch.setattr(stepper, "ETD_MAX_SUBSTEPS", 8)
    p = example1()
    g, t0, t1 = p.space_grid(48, 48), 0.0, 1.0 / 6.0
    u0 = np.zeros(g.n_interior)
    u1, u2, u4, u8 = (etdrk4_fixed(p, g, t0, t1, u0, n) for n in (1, 2, 4, 8))
    measured = float(np.abs(u8 - u4).max()) / 15.0
    predicted = float(np.abs(u2 - u1).max()) / 15.0 / (2**4) ** 2
    assert f"{measured:.3e}" != f"{predicted:.3e}" and measured > 1e-9
    with pytest.raises(InitializationError,
                       match=rf"ETDRK4 error estimate {measured:.3e} still above "
                             r"target after 8 substeps"):
        etd_init(p, g, t0, t1, u0)


# ------------------------------------------------------------ bdf_imex_step

def step(u_prev, u_curr, nodes, beta, p, g, sine):
    """``bdf_imex_step`` over the node triple ``nodes``: its weights and
    both liftings are built here, as ``integrate`` builds them. ``sine``
    picks the solve, as ``integrate`` picks it from the start's stiffness."""
    liftings = tuple(boundary_contribution(p.boundary, t, g) for t in nodes[1:])
    return bdf_imex_step(u_prev, u_curr, nonuniform_coeffs(*nodes, beta), liftings,
                         p, g, sine)


def test_step_keeps_rest_state():
    p = quiescent_problem()
    p = ProblemSpec(**{**p.__dict__, "K": 0.0})
    g = p.space_grid(7, 7)
    tg = uniform_grid(1.0, 10)
    z = np.zeros(g.n_interior)
    for sine in (False, True):
        u2, solve = step(z, z, tg.nodes[:3], 2.0, p, g, sine)
        assert np.all(u2 == 0.0)
        assert solve.iterations == 0 and solve.residuals == [0.0]


def test_step_pure_extrapolation_limit():
    # D = K = 0 reduces the step to u^{n+1} = -(a1 u^n + a0 u^{n-1}) / a2
    p = ProblemSpec(
        name="free", domain=(0.0, 1.0, 0.0, 1.0), T=1.0, D=0.0, K=0.0,
        nonlinearity=LOGISTIC, boundary=lambda x, y, t: 0.0,
        initial=lambda x, y: 0.0,
    )
    g = p.space_grid(6, 6)
    tg = uniform_grid(1.0, 4)
    rng = np.random.default_rng(3)
    u_prev = rng.standard_normal(g.n_interior)
    u_curr = rng.standard_normal(g.n_interior)
    a0, a1, a2 = nonuniform_coeffs(*tg.nodes[:3], 1.9).a
    for sine in (False, True):
        u_next, _ = step(u_prev, u_curr, tg.nodes[:3], 1.9, p, g, sine)
        np.testing.assert_allclose(u_next, -(a1 * u_curr + a0 * u_prev) / a2,
                                   rtol=1e-10)


def test_step_reproduces_quadratic_in_time_linear_in_space(monkeypatch):
    # space-linear, time-quadratic exact solution of u_t = lap(u) + g with
    # K = 0: every piece of the step is exact, so the solve must return the
    # exact next level (time-dependent boundary lifting included); CG
    # iterates, the sine solve takes none
    def u_exact(x, y, t):
        return (1.0 + 2.0 * x + 3.0 * y) * (0.4 * t * t - 0.7 * t + 0.2)

    def g_src(x, y, t):
        return (1.0 + 2.0 * x + 3.0 * y) * (0.8 * t - 0.7)

    p = ProblemSpec(
        name="poly", domain=(0.0, 2.0, -1.0, 1.0), T=1.0, D=1.0, K=0.0,
        nonlinearity=LOGISTIC, boundary=u_exact,
        initial=lambda x, y: u_exact(x, y, 0.0), source=g_src, exact=u_exact,
    )
    g = p.space_grid(9, 8)
    nodes = np.array([0.0, 0.07, 0.15, 0.26, 0.5, 0.75, 1.0])
    monkeypatch.setattr(stepper, "cg_solve", partial(cg_solve, tol=1e-13))
    for n, sine in itertools.product((1, 3), (False, True)):
        u_next, solve = step(
            eval_interior(p.exact, g, t=nodes[n - 1]),
            eval_interior(p.exact, g, t=nodes[n]),
            nodes[n - 1:n + 2], 2.3, p, g, sine,
        )
        assert (solve.iterations == 0) == sine
        np.testing.assert_allclose(
            u_next, eval_interior(p.exact, g, t=nodes[n + 1]), atol=2e-11)


def example1_without_reaction():
    return dataclasses.replace(example1(), K=0.0)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (16, 16), (47, 33), (160, 160)])
@pytest.mark.parametrize("example", [example1, example2, example1_without_reaction])
def test_step_matches_allocating_reference(example, nx, ny, monkeypatch):
    # the step's right-hand side expression, with and without its
    # reaction term, and the in-place CG repeat the allocating versions
    # operation for operation
    p = example()
    g = p.space_grid(nx, ny)
    solves = []

    def recording_cg(op, rhs, **kwargs):
        solves.append((op, rhs.copy()))
        return cg_solve(op, rhs, **kwargs)

    monkeypatch.setattr(stepper, "cg_solve", recording_cg)
    rng = np.random.default_rng(nx * ny)
    for nodes, beta in (((0.1, 0.13, 0.17), math.sqrt(2)),
                        ((0.5, 0.6, 0.7), 2.0), ((0.0, 0.02, 0.09), math.pi)):
        u_prev, u_curr = rng.uniform(0.0, 1.0, (2, g.n_interior))
        u_next, solve = step(u_prev, u_curr, nodes, beta, p, g, sine=False)
        rhs, sigma, kappa = step_rhs_allocating(p, g, *nodes, beta, u_prev, u_curr)
        op, step_rhs = solves.pop()
        assert np.array_equal(step_rhs, rhs)
        assert (op.sigma, op.kappa) == (sigma, kappa)
        x, iterations, history = cg_allocating(sigma, kappa, g, rhs, u_curr)
        assert np.array_equal(u_next, x)
        assert (solve.iterations, solve.residuals) == (iterations, history)
        assert not np.shares_memory(u_next, u_curr)


def test_step_runs_the_stencil_twice_besides_cg_iterations(monkeypatch):
    # once for L u^n in the right-hand side and once for CG's initial
    # residual, on the warm start u^n; u^n and u^{n-1} stay as given
    p = example2()
    g = p.space_grid(12, 9)
    runs, given = [], []
    stencil = spatial._stencil

    def counting(plan):
        runs.append(plan)
        return stencil(plan)

    def recording_cg(op, rhs, **kwargs):
        given.append(kwargs)
        return cg_solve(op, rhs, **kwargs)

    monkeypatch.setattr(spatial, "_stencil", counting)
    monkeypatch.setattr(linsolve, "_stencil", counting)
    monkeypatch.setattr(stepper, "cg_solve", recording_cg)
    rng = np.random.default_rng(5)
    u_prev, u_curr = rng.uniform(0.0, 1.0, (2, g.n_interior))
    before = u_prev.copy(), u_curr.copy()
    _, solve = step(u_prev, u_curr, (0.1, 0.13, 0.17), 2.0, p, g, sine=False)
    assert solve.iterations > 0
    assert len(runs) == solve.iterations + 2
    (kwargs,) = given
    assert kwargs.keys() == {"x0"} and kwargs["x0"] is u_curr
    assert np.array_equal(u_prev, before[0]) and np.array_equal(u_curr, before[1])


# the integrations of the benchmark's mms-sweep-graded call, and its
# wave-solve run at beta = pi: (problem, N, M, gamma, beta)
BENCHMARK_RUNS = [
    *((example1, 16, m, 0.75, beta) for beta in (math.sqrt(2), 2.0, math.pi)
      for m in (20, 40, 80)),
    (example2, 160, 80, 0.75, math.pi),
]


@pytest.mark.parametrize("example, n, m, gamma, beta", BENCHMARK_RUNS)
def test_folded_operator_keeps_every_steps_iterations(example, n, m, gamma, beta,
                                                      monkeypatch):
    # CG's stencil weights sigma + 2 kappa (ax + ay), -kappa ax, -kappa ay
    # round otherwise than sigma v - kappa (L v); on these runs, which all
    # start with DP5(4) and solve with CG, that must change no step's
    # iteration count, and the fields only at rounding level
    p = example()
    g = p.space_grid(n, n)
    tg = graded_grid(p.T, m, gamma)
    u, report = integrate(p, tg, g, beta)
    calls = []

    def unfolded_cg(op, rhs, x0):
        calls.append(op)
        x, iterations, history = cg_allocating(op.sigma, op.kappa, op.grid, rhs, x0,
                                               operator=unfolded_operator_slices)
        return CGResult(x=x, iterations=iterations, residuals=history)

    monkeypatch.setattr(stepper, "cg_solve", unfolded_cg)
    u_ref, ref = integrate(p, tg, g, beta)
    assert len(calls) == m - 1
    assert [s.cg_iters for s in report.steps] == [s.cg_iters for s in ref.steps]
    assert np.abs(u - u_ref).max() <= 1e-12


def test_integrations_share_a_start_only_for_the_same_problem_grid_and_interval(
        monkeypatch):
    p = example1()
    other = dataclasses.replace(p, source=None)
    g = p.space_grid(6, 6)
    real_start = stepper.start_level
    calls = []

    def counting(*args):
        calls.append(args)
        return real_start(*args)

    alone = integrate(p, uniform_grid(1.0, 4), g, 2.0)
    monkeypatch.setattr(stepper, "start_level", counting)
    starts = {}
    for problem, tgrid, sgrid, beta in (
            (p, uniform_grid(1.0, 4), g, 2.0),
            (p, uniform_grid(1.0, 4), p.space_grid(6, 6), math.pi),
            (p, uniform_grid(1.0, 4), g, 2.0),
            (other, uniform_grid(1.0, 4), g, 2.0),
            (p, uniform_grid(1.0, 8), g, 2.0),
            (p, graded_grid(1.0, 4, 0.75), g, 2.0),
            (p, uniform_grid(1.0, 4), p.space_grid(6, 5), 2.0)):
        u, report = integrate(problem, tgrid, sgrid, beta, starts)
    assert len(calls) == len(starts) == 5
    u, report = integrate(p, uniform_grid(1.0, 4), g, 2.0, starts)
    assert np.array_equal(u, alone[0])
    assert report.starter == alone[1].starter
    assert [(s.step, s.t, s.cg_iters, s.residual) for s in report.steps] == \
        [(s.step, s.t, s.cg_iters, s.residual) for s in alone[1].steps]
    assert len(calls) == 5


# --------------------------------------------------------------- integrate

def test_integrate_manufactured_error_shrinks_4x_when_m_doubles():
    # temporal component isolated against a step-converged reference on the
    # same spatial grid (the N=32 spatial floor would otherwise mask it)
    p = example1()
    g = p.space_grid(32, 32)
    ref, _ = integrate(p, uniform_grid(1.0, 640), g, math.sqrt(2))
    e40 = linf_error(integrate(p, uniform_grid(1.0, 40), g, math.sqrt(2))[0], ref)
    e80 = linf_error(integrate(p, uniform_grid(1.0, 80), g, math.sqrt(2))[0], ref)
    assert 3.5 <= e40 / e80 <= 4.5


def test_integrate_spatial_error_floor_richardson():
    # with M huge the error is pure O(h^2): quarter it by doubling N
    p = example1()
    tg = uniform_grid(1.0, 400)
    errs = []
    for n in (8, 16):
        g = p.space_grid(n, n)
        u, _ = integrate(p, tg, g, 2.0)
        errs.append(linf_error(u, exact_final_field(p, g, 1.0)))
    assert 3.6 <= errs[0] / errs[1] <= 4.4


def test_integrate_on_graded_grid_is_sane():
    p = example1()
    g = p.space_grid(12, 12)
    tg = graded_grid(1.0, 16, 0.75)
    u, report = integrate(p, tg, g, 2.0)
    assert np.all(np.isfinite(u))
    assert len(report.steps) == 15
    assert report.steps[-1].t == 1.0


def test_integrate_is_deterministic():
    p = example2()
    g = p.space_grid(10, 10)
    tg = uniform_grid(1.0, 6)
    ua, ra = integrate(p, tg, g, 2.0)
    ub, rb = integrate(p, tg, g, 2.0)
    assert np.array_equal(ua, ub)
    for sa, sb in zip(ra.steps, rb.steps):
        assert (sa.step, sa.t, sa.cg_iters, sa.residual) \
            == (sb.step, sb.t, sb.cg_iters, sb.residual)


def test_integrate_evaluates_each_lifting_once(monkeypatch):
    # each step's t_{n+1} lifting is the next step's t_n one; the steps
    # must match steps that evaluate both liftings themselves, so a
    # shared lifting is never scaled in place
    p = example2()
    g = p.space_grid(10, 7)
    tg = graded_grid(1.0, 6, 0.75)
    nodes = tg.nodes
    real_start, real_lifting = stepper.start_level, stepper.boundary_contribution
    times, starts = [], []

    def counting(bc, t, sgrid):
        times.append(t)
        return real_lifting(bc, t, sgrid)

    def start_then_count(*args):
        starts.append(real_start(*args))
        monkeypatch.setattr(stepper, "boundary_contribution", counting)
        return starts[-1]

    monkeypatch.setattr(stepper, "start_level", start_then_count)
    u, report = integrate(p, tg, g, math.pi)
    assert times == list(nodes[1:])
    monkeypatch.setattr(stepper, "boundary_contribution", real_lifting)
    # the run starts with DP5(4), so its steps solve with CG
    assert report.starter.method == "dp54"
    u_prev, u_curr = eval_interior(p.initial, g), starts[0][0]
    for n in range(1, tg.M):
        u_next, _ = step(u_prev, u_curr, nodes[n - 1:n + 2], math.pi, p, g,
                         sine=False)
        u_prev, u_curr = u_curr, u_next
    assert np.array_equal(u, u_curr)


def stiff_run():
    """The benchmark's mms-starter run, manufactured at N = 48 and M = 6,
    whose start is stiff."""
    p = example1()
    g = p.space_grid(48, 48)
    tg = uniform_grid(1.0, 6)
    assert start_stiffness(p, g, 0.0, tg.nodes[1]) > ETD_STIFFNESS
    return p, g, tg


def test_stiff_run_solves_every_step_in_the_sine_basis(monkeypatch):
    p, g, tg = stiff_run()
    rhs_norms = []

    def cg_must_not_run(*args, **kwargs):
        raise AssertionError("cg_solve was called")

    def recording(op, rhs):
        rhs_norms.append(np.linalg.norm(rhs))
        return direct_solve_small(op, rhs)

    monkeypatch.setattr(stepper, "cg_solve", cg_must_not_run)
    monkeypatch.setattr(stepper, "direct_solve_small", recording)
    _, report = integrate(p, tg, g, 2.0)
    assert report.starter.method == "etdrk4"
    assert len(rhs_norms) == tg.M - 1
    assert [s.cg_iters for s in report.steps] == [0] * (tg.M - 1)
    for s, b_norm in zip(report.steps, rhs_norms):
        assert 0.0 < s.residual <= 1e-10 * b_norm


def test_dp54_run_makes_no_sine_solve(monkeypatch):
    p = example2()
    g = p.space_grid(16, 16)
    tg = uniform_grid(1.0, 6)
    calls = []

    def sine_must_not_run(*args):
        raise AssertionError("direct_solve_small was called")

    def counting(op, rhs, **kwargs):
        calls.append(op)
        return cg_solve(op, rhs, **kwargs)

    monkeypatch.setattr(stepper, "direct_solve_small", sine_must_not_run)
    monkeypatch.setattr(stepper, "cg_solve", counting)
    _, report = integrate(p, tg, g, 2.0)
    assert report.starter.method == "dp54"
    assert len(calls) == tg.M - 1
    assert all(s.cg_iters > 0 for s in report.steps)


def test_stiff_run_agrees_with_the_run_forced_through_cg(monkeypatch):
    # CG at tol 1e-14 leaves a relative error of at most cond * 1e-14 a
    # step, and cond is 197 for each of these steps' operators: the bound
    # is that error summed over the five steps, on a field of max 0.82.
    # The gap measured on this run is 1.9e-15
    p, g, tg = stiff_run()
    u, _ = integrate(p, tg, g, 2.0)
    real_step = stepper.bdf_imex_step
    monkeypatch.setattr(stepper, "bdf_imex_step",
                        lambda *args: real_step(*args[:-1], False))
    monkeypatch.setattr(stepper, "cg_solve", partial(cg_solve, tol=1e-14))
    u_cg, report = integrate(p, tg, g, 2.0)
    assert min(s.cg_iters for s in report.steps) > 0
    assert np.abs(u - u_cg).max() <= 5 * 197 * 1e-14


def test_integrate_reports_failing_step(monkeypatch):
    # CG capped at one iteration cannot meet the tolerance on the first
    # step of this run, which starts with DP5(4) and so solves with CG
    monkeypatch.setattr(stepper, "cg_solve", partial(cg_solve, max_iter=1))
    p = example1()
    g = p.space_grid(16, 16)
    tg = uniform_grid(1.0, 8)
    with pytest.raises(RuntimeError, match="step 2") as info:
        integrate(p, tg, g, 2.0)
    assert isinstance(info.value.__cause__, SolveFailure)
    assert str(info.value.__cause__).startswith("CG stalled")


def test_integrate_reports_failing_sine_step(monkeypatch):
    # a sine-basis solution off by a relative 1e-6 misses CG's tolerance,
    # and the residual check stops the run at its first step
    def inexact(op, rhs):
        return direct_solve_small(op, rhs) * (1.0 + 1e-6)

    monkeypatch.setattr(stepper, "direct_solve_small", inexact)
    p, g, tg = stiff_run()
    with pytest.raises(RuntimeError, match=r"^step 2 \(t=0.333333\) failed$") as info:
        integrate(p, tg, g, 2.0)
    assert isinstance(info.value.__cause__, SolveFailure)
    assert "missed relative residual 1e-10" in str(info.value.__cause__)


def test_integrate_names_step_of_bad_coefficients(monkeypatch):
    # the triple (0, 1e-14, 0.5) of the step to t = 0.5 amplifies the
    # extrapolation by 2e14; the weights are built before the start
    def start(*args):
        raise AssertionError("start_level was called")

    monkeypatch.setattr(stepper, "start_level", start)
    p = example1()
    g = p.space_grid(6, 6)
    tg = TimeGrid(T=1.0, M=3, nodes=np.array([0.0, 1e-14, 0.5, 1.0]))
    with pytest.raises(CoefficientError,
                       match=r"^beta=2 step 2 \(t=0.5\): node triple \(0.0, 1e-14, "
                             r"0.5\) has step ratio") as info:
        integrate(p, tg, g, 2.0)
    assert isinstance(info.value.__cause__, CoefficientError)


def test_integrate_builds_each_steps_weights_once(monkeypatch):
    # row n - 1 of step_weights is the weights of the triple of the step to
    # t_{n+1}, and integrate builds each row once: the tracer's coeffs
    # layer counts M - 1 weight sets per integration
    p = example1()
    tg = graded_grid(1.0, 7, 0.75)
    nodes = tg.nodes.tolist()
    triples = [(*nodes[n - 1:n + 2], math.pi) for n in range(1, 7)]
    assert stepper.step_weights(tg, math.pi) == [nonuniform_coeffs(*t) for t in triples]
    calls = []

    def counting(*args):
        calls.append(args)
        return nonuniform_coeffs(*args)

    monkeypatch.setattr(stepper, "nonuniform_coeffs", counting)
    integrate(p, tg, p.space_grid(6, 6), math.pi)
    assert calls == triples


def calls_to(tree, names, function):
    """Source of every call in ``function`` whose callee is one of ``names``."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == function:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                    if name in names:
                        yield ast.unparse(node)


def test_step_only_reads_its_weights():
    # the weights of a step come from step_weights, built once per
    # integration before the start; the step builds none of its own
    tree = ast.parse(Path(stepper.__file__).read_text())
    from_coeffs = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "coeffs"
                   for alias in node.names}
    assert "nonuniform_coeffs" in from_coeffs
    assert list(calls_to(tree, from_coeffs, "bdf_imex_step")) == []
    # the check sees a call by name and through the module
    copy = ast.parse("def bdf_imex_step(t, beta):\n"
                     "    return nonuniform_coeffs(*t, beta), coeffs.uniform_coeffs(beta)\n")
    assert list(calls_to(copy, from_coeffs, "bdf_imex_step")) == [
        "nonuniform_coeffs(*t, beta)", "coeffs.uniform_coeffs(beta)"]


def nan_source_after(p, t_bad):
    """Example with a source that turns NaN for t > t_bad."""
    def source(x, y, t):
        value = p.source(x, y, t)
        return value if t <= t_bad else np.full_like(value, np.nan)
    return ProblemSpec(**{**p.__dict__, "source": source})


def test_integrate_stops_when_solve_meets_nan():
    # t* of step 4 on M = 8 with beta = 2 is 0.625, the first past 0.5;
    # the run starts with DP5(4), so CG meets the NaN
    p = nan_source_after(example1(), 0.5)
    g = p.space_grid(8, 8)
    with pytest.raises(RuntimeError, match=r"step 4 \(t=0.5\)") as info:
        integrate(p, uniform_grid(1.0, 8), g, 2.0)
    assert isinstance(info.value.__cause__, SolveFailure)
    assert str(info.value.__cause__).startswith("CG ")


def test_integrate_stops_when_sine_solve_meets_nan():
    # as above on a 32 x 32 grid, whose start is stiff: the ETDRK4 start
    # samples the source up to t = 0.125 only, and the sine solve of step 4
    # passes the NaN on to its residual check
    p = nan_source_after(example1(), 0.5)
    g = p.space_grid(32, 32)
    assert start_stiffness(p, g, 0.0, 0.125) > ETD_STIFFNESS
    with pytest.raises(RuntimeError, match=r"^step 4 \(t=0.5\) failed$") as info:
        integrate(p, uniform_grid(1.0, 8), g, 2.0)
    assert isinstance(info.value.__cause__, SolveFailure)
    assert str(info.value.__cause__) == "sine-basis solve residual is not finite"


def test_integrate_stops_on_non_finite_field(monkeypatch):
    # a solve that passes NaN through unchecked; the step's check must stop
    # it. The run starts with DP5(4), so every step calls the patched CG
    calls = []

    def exact_solve(op, rhs, **kw):
        calls.append(op)
        return CGResult(x=direct_solve_small(op, rhs), iterations=0,
                        residuals=[0.0])

    monkeypatch.setattr(stepper, "cg_solve", exact_solve)
    p = nan_source_after(example1(), 0.5)
    g = p.space_grid(8, 8)
    with pytest.raises(RuntimeError, match=r"step 4 \(t=0.5\)") as info:
        integrate(p, uniform_grid(1.0, 8), g, 2.0)
    assert len(calls) == 3
    assert "not finite" in str(info.value.__cause__)


def test_report_csv_format(tmp_path):
    p = example1()
    g = p.space_grid(8, 8)
    u, report = integrate(p, uniform_grid(1.0, 4), g, 2.0)
    path = tmp_path / "report.csv"
    report.to_csv(path, header_lines=["config=cafe"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=cafe"
    assert lines[1] == f"# starter=dp54 nfev={report.starter.nfev}"
    assert lines[2] == "step,t_n,cg_iters,residual,wall_ms"
    assert len(lines) == 3 + 3  # M - 1 steps
    assert lines[3].split(",")[0] == "2"
