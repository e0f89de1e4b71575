import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from fisherkpp.coeffs import CoefficientError, nonuniform_coeffs
from fisherkpp import stepper
from fisherkpp.linsolve import CGResult, SolveFailure, cg_solve, direct_solve_small
from fisherkpp.problems import (
    PQ_PRODUCT,
    Nonlinearity,
    ProblemSpec,
    example1,
    example2,
)
from fisherkpp.spatial import eval_interior
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

from oracles import cg_allocating, step_rhs_allocating

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


def test_rk_init_reports_step_size_underflow():
    # u' = u^2 from a large start blows up inside the interval, driving the
    # adaptive step below machine resolution
    p = ProblemSpec(
        name="blowup", domain=(0.0, 1.0, 0.0, 1.0), T=1.0, D=0.0, K=1.0,
        nonlinearity=Nonlinearity(PQ_PRODUCT, p=2, q=0),
        boundary=lambda x, y, t: 0.0, initial=lambda x, y: 0.0,
    )
    g = p.space_grid(5, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InitializationError):
            rk_init(p, g, 0.0, 0.5, np.full(g.n_interior, 1000.0))


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


@pytest.mark.parametrize("case", ["manufactured-48", "wave-24x20"])
def test_etd_init_matches_dp5_oracle(case):
    # the wave case has time-dependent Dirichlet data and hx != hy
    if case == "manufactured-48":
        p = example1()
        g, t0, t1 = p.space_grid(48, 48), 0.0, 1.0 / 6.0
    else:
        p = example2()
        g, t0, t1 = p.space_grid(24, 20), 0.3, 0.55
    u0 = eval_interior(p.exact, g, t=t0)
    u_etd, rec = etd_init(p, g, t0, t1, u0)
    u_dp5, _ = rk_init(p, g, t0, t1, u0, rtol=1e-13, atol=1e-13)
    assert np.abs(u_etd - u_dp5).max() <= 1e-10
    assert rec.method == "etdrk4" and rec.estimate <= 1e-9
    assert rec.nfev == 4 * (2 * rec.substeps - 1)


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


# ------------------------------------------------------------ bdf_imex_step

def test_step_keeps_rest_state():
    p = quiescent_problem()
    p = ProblemSpec(**{**p.__dict__, "K": 0.0})
    g = p.space_grid(7, 7)
    tg = uniform_grid(1.0, 10)
    z = np.zeros(g.n_interior)
    u2, solve = bdf_imex_step(z, z, *tg.nodes[:3], 2.0, p, g)
    assert np.all(u2 == 0.0)
    assert solve.iterations == 0


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
    u_next, _ = bdf_imex_step(u_prev, u_curr, *tg.nodes[:3], 1.9, p, g)
    a0, a1, a2 = nonuniform_coeffs(*tg.nodes[:3], 1.9).a
    np.testing.assert_allclose(u_next, -(a1 * u_curr + a0 * u_prev) / a2,
                               rtol=1e-10)


def test_step_reproduces_quadratic_in_time_linear_in_space(monkeypatch):
    # space-linear, time-quadratic exact solution of u_t = lap(u) + g with
    # K = 0: every piece of the step is exact, so the solve must return the
    # exact next level (time-dependent boundary lifting included)
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
    for n in (1, 3):
        u_next, _ = bdf_imex_step(
            eval_interior(p.exact, g, t=nodes[n - 1]),
            eval_interior(p.exact, g, t=nodes[n]),
            nodes[n - 1], nodes[n], nodes[n + 1], 2.3, p, g,
        )
        np.testing.assert_allclose(
            u_next, eval_interior(p.exact, g, t=nodes[n + 1]), atol=2e-11)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (16, 16), (47, 33), (160, 160)])
@pytest.mark.parametrize("example", [example1, example2])
def test_step_matches_allocating_reference(example, nx, ny, monkeypatch):
    # the one-buffer right-hand side and the in-place CG repeat the
    # allocating versions operation for operation
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
        u_next, solve = bdf_imex_step(u_prev, u_curr, *nodes, beta, p, g)
        rhs, sigma, kappa = step_rhs_allocating(p, g, *nodes, beta, u_prev, u_curr)
        op, step_rhs = solves.pop()
        assert np.array_equal(step_rhs, rhs)
        assert (op.sigma, op.kappa) == (sigma, kappa)
        x, iterations, history = cg_allocating(sigma, kappa, g, rhs, u_curr)
        assert np.array_equal(u_next, x)
        assert (solve.iterations, solve.residuals) == (iterations, history)
        assert not np.shares_memory(u_next, u_curr)


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


def test_integrate_reports_failing_step(monkeypatch):
    # CG capped at one iteration cannot meet the tolerance on the first step
    monkeypatch.setattr(stepper, "cg_solve", partial(cg_solve, max_iter=1))
    p = example1()
    g = p.space_grid(16, 16)
    tg = uniform_grid(1.0, 8)
    with pytest.raises(RuntimeError, match="step 2") as info:
        integrate(p, tg, g, 2.0)
    assert isinstance(info.value.__cause__, SolveFailure)


def test_integrate_names_step_of_bad_coefficients():
    # (0, 1e-14, 0.5) is a near-degenerate triple for the step to t = 0.5
    p = example1()
    g = p.space_grid(6, 6)
    tg = TimeGrid(T=1.0, M=3, nodes=np.array([0.0, 1e-14, 0.5, 1.0]))
    with pytest.raises(RuntimeError, match="step 2") as info:
        integrate(p, tg, g, 2.0)
    assert isinstance(info.value.__cause__, CoefficientError)


def nan_source_after(p, t_bad):
    """Example with a source that turns NaN for t > t_bad."""
    def source(x, y, t):
        value = p.source(x, y, t)
        return value if t <= t_bad else np.full_like(value, np.nan)
    return ProblemSpec(**{**p.__dict__, "source": source})


def test_integrate_stops_when_solve_meets_nan():
    # t* of step 4 on M = 8 with beta = 2 is 0.625, the first past 0.5
    p = nan_source_after(example1(), 0.5)
    g = p.space_grid(8, 8)
    with pytest.raises(RuntimeError, match=r"step 4 \(t=0.5\)") as info:
        integrate(p, uniform_grid(1.0, 8), g, 2.0)
    assert isinstance(info.value.__cause__, SolveFailure)


def test_integrate_stops_on_non_finite_field(monkeypatch):
    # a solve that passes NaN through, as the exact sine-basis solve
    # does; the step's check must stop it
    def exact_solve(op, rhs, **kw):
        return CGResult(x=direct_solve_small(op, rhs), iterations=0,
                        residuals=[0.0])

    monkeypatch.setattr(stepper, "cg_solve", exact_solve)
    p = nan_source_after(example1(), 0.5)
    g = p.space_grid(8, 8)
    with pytest.raises(RuntimeError, match=r"step 4 \(t=0.5\)") as info:
        integrate(p, uniform_grid(1.0, 8), g, 2.0)
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
