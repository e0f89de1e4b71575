import math

import numpy as np
import pytest

from fisherkpp.coeffs import CoefficientError, nonuniform_coeffs
from fisherkpp import stepper
from fisherkpp.linsolve import CGResult, SolveFailure, direct_solve_small
from fisherkpp.problems import (
    PQ_PRODUCT,
    Nonlinearity,
    ProblemSpec,
    example1,
    example2,
)
from fisherkpp.spatial import eval_interior
from fisherkpp.stepper import (
    InitializationError,
    bdf_imex_step,
    integrate,
    rk_init,
)
from fisherkpp.timegrid import TimeGrid, uniform_grid, graded_grid
from fisherkpp.analysis import exact_final_field, linf_error

from oracles import dense_step_oracle

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
    u1 = rk_init(p, g, 0.0, 0.25, np.zeros(g.n_interior))
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
    u1 = rk_init(p, g, 0.0, 0.8, u0)
    np.testing.assert_allclose(u1, np.exp(-0.8) * u0, rtol=1e-9)


def test_rk_init_reaches_spatial_accuracy_on_manufactured_problem():
    # over a short window the starter error is the O(h^2) spatial error;
    # magnitudes frozen from a verified run, with margin
    p = example1()
    t1 = 1.0 / 64.0
    errs = {}
    for n in (8, 16):
        g = p.space_grid(n, n)
        u1 = rk_init(p, g, 0.0, t1, eval_interior(p.initial, g))
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


# ------------------------------------------------------------ bdf_imex_step

def test_step_keeps_rest_state():
    p = quiescent_problem()
    p = ProblemSpec(**{**p.__dict__, "K": 0.0})
    g = p.space_grid(7, 7)
    tg = uniform_grid(1.0, 10)
    z = np.zeros(g.n_interior)
    cf = nonuniform_coeffs(*tg.nodes[:3], 2.0)
    u2, solve = bdf_imex_step(z, z, tg.nodes[1], tg.nodes[2], cf, p, g)
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
    cf = nonuniform_coeffs(*tg.nodes[:3], 1.9)
    u_next, _ = bdf_imex_step(u_prev, u_curr, tg.nodes[1], tg.nodes[2], cf, p, g)
    a0, a1, a2 = cf.a
    np.testing.assert_allclose(u_next, -(a1 * u_curr + a0 * u_prev) / a2,
                               rtol=1e-10)


def test_step_rejects_coefficients_from_wrong_triple():
    p = quiescent_problem()
    g = p.space_grid(6, 6)
    tg = uniform_grid(1.0, 10)
    z = np.zeros(g.n_interior)
    stale = nonuniform_coeffs(0.5, 0.6, 0.7, 2.0)  # but the step is 0.1 -> 0.2
    with pytest.raises(ValueError, match="expects t="):
        bdf_imex_step(z, z, tg.nodes[1], tg.nodes[2], stale, p, g)


def test_step_reproduces_quadratic_in_time_linear_in_space():
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
    for n in (1, 3):
        cf = nonuniform_coeffs(nodes[n - 1], nodes[n], nodes[n + 1], 2.3)
        u_next, _ = bdf_imex_step(
            eval_interior(p.exact, g, t=nodes[n - 1]),
            eval_interior(p.exact, g, t=nodes[n]),
            nodes[n], nodes[n + 1], cf, p, g, tol=1e-13,
        )
        np.testing.assert_allclose(
            u_next, eval_interior(p.exact, g, t=nodes[n + 1]), atol=2e-11)


# ------------------------------------------------- dense one-step oracle

@pytest.mark.parametrize("problem_fn", [example1, example2])
@pytest.mark.parametrize("path", ["uniform", "nonuniform"])
def test_step_matches_dense_oracle(problem_fn, path):
    p = problem_fn()
    g = p.space_grid(7, 7)  # 6x6 interior
    beta = 2.0
    if path == "uniform":
        tg = uniform_grid(1.0, 10)
        n = 3
    else:
        nodes = np.array([0.0, 0.11, 0.19, 0.34, 0.52, 0.78, 1.0])
        tg = TimeGrid(T=1.0, M=6, nodes=nodes)
        n = 2
    t_prev, t_curr, t_next = tg.nodes[n - 1], tg.nodes[n], tg.nodes[n + 1]
    cf = nonuniform_coeffs(t_prev, t_curr, t_next, beta)

    u_prev = eval_interior(p.exact, g, t=t_prev)
    u_curr = eval_interior(p.exact, g, t=t_curr)
    u_next, _ = bdf_imex_step(u_prev, u_curr, t_curr, t_next, cf, p, g,
                              tol=1e-12)
    oracle = dense_step_oracle(p, g, t_prev, t_curr, t_next, beta,
                               u_prev, u_curr)
    assert np.abs(u_next - oracle).max() <= 1e-11


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
    cg_solve = stepper.cg_solve
    monkeypatch.setattr(stepper, "cg_solve",
                        lambda op, rhs, **kw: cg_solve(op, rhs, max_iter=1, **kw))
    p = example1()
    g = p.space_grid(16, 16)
    tg = uniform_grid(1.0, 8)
    with pytest.raises(RuntimeError, match="step 2") as info:
        integrate(p, tg, g, 2.0, tol=1e-12)
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
    # a solve that passes NaN through, as a dense solve does; the step's
    # check must stop it
    def dense_solve(op, rhs, **kw):
        return CGResult(x=direct_solve_small(op, rhs), iterations=0,
                        residuals=[0.0])

    monkeypatch.setattr(stepper, "cg_solve", dense_solve)
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
    assert lines[1] == "step,t_n,cg_iters,residual,wall_ms"
    assert len(lines) == 2 + 3  # M - 1 steps
    assert lines[2].split(",")[0] == "2"
