import math

import mpmath as mp
import numpy as np
import pytest

from fisherkpp import coeffs
from fisherkpp.coeffs import (
    CoefficientError,
    nonuniform_coeffs,
    uniform_coeffs,
    vandermonde_condition,
)
from fisherkpp.problems import example1
from fisherkpp.stepper import integrate
from fisherkpp.timegrid import graded_grid

from oracles import lagrange_coeffs

# frozen from a 50-digit solve of the three offset Vandermonde systems
# at (t_prev, t_curr, t_next) = (0, 0.3, 1), beta = sqrt(2)
NONUNIFORM_CASE = dict(
    t_eval=1.2899494936611666,
    a=(4.26632995774111, -7.523328511058729, 3.2569985533176187),
    b=(-0.41421356237309503, 1.4142135623730951),
    c=(-3.2998316455372216, 4.299831645537222),
)


def consistency_gaps(cf, nodes):
    """The seven order conditions; all should vanish (a's first moment is 1)."""
    t_prev, t_curr, t_next = nodes
    d = np.array(nodes) - cf.t_eval
    a = np.array(cf.a)
    b = np.array(cf.b)
    c = np.array(cf.c)
    return [
        a.sum(),
        a @ d - 1.0,
        a @ d**2,
        b.sum() - 1.0,
        b @ (d[1:] - 0.0),
        c.sum() - 1.0,
        c @ d[:2],
    ]


def test_uniform_beta2_matches_hand_solution():
    cf = uniform_coeffs(2.0)
    assert cf.a == (1.5, -4.0, 2.5)
    assert cf.b == (-1.0, 2.0)
    assert cf.c == (-2.0, 3.0)
    assert cf.t_eval == 2.0


@pytest.mark.parametrize("beta", [1.0 + 1e-9, math.sqrt(2), 2.0, math.pi, 7.5])
def test_uniform_closed_forms(beta):
    # b = (1-beta, beta) and c = (-beta, 1+beta) follow from the 2x2 systems
    cf = uniform_coeffs(beta)
    np.testing.assert_allclose(cf.b, (1.0 - beta, beta), rtol=1e-14)
    np.testing.assert_allclose(cf.c, (-beta, 1.0 + beta), rtol=1e-14)
    assert abs(sum(cf.a)) <= 1e-13


@pytest.mark.parametrize("beta", [math.sqrt(2), 2.0, math.pi])
def test_uniform_consistency_sums(beta):
    cf = uniform_coeffs(beta)
    gaps = consistency_gaps(cf, (-1.0 - beta + cf.t_eval,
                                 -beta + cf.t_eval,
                                 1.0 - beta + cf.t_eval))
    assert max(abs(g) for g in gaps) <= 1e-13


@pytest.mark.parametrize("beta", [1.0, 0.5, -2.0])
def test_uniform_rejects_small_beta(beta):
    with pytest.raises(CoefficientError):
        uniform_coeffs(beta)


def test_nonuniform_matches_frozen_oracle():
    cf = nonuniform_coeffs(0.0, 0.3, 1.0, math.sqrt(2))
    assert cf.t_eval == pytest.approx(NONUNIFORM_CASE["t_eval"], rel=1e-15)
    np.testing.assert_allclose(cf.a, NONUNIFORM_CASE["a"], rtol=1e-14)
    np.testing.assert_allclose(cf.b, NONUNIFORM_CASE["b"], rtol=1e-14)
    np.testing.assert_allclose(cf.c, NONUNIFORM_CASE["c"], rtol=1e-14)


def test_nonuniform_equals_scaled_uniform_on_equispaced_nodes():
    beta = 1.7
    for h in (0.25, 1e-3, 1e-6, 10.0):
        cu = uniform_coeffs(beta)
        cn = nonuniform_coeffs(0.0, h, 2.0 * h, beta)
        np.testing.assert_allclose(cn.a, np.array(cu.a) / h, rtol=1e-12)
        np.testing.assert_allclose(cn.b, cu.b, rtol=1e-13)
        np.testing.assert_allclose(cn.c, cu.c, rtol=1e-13)


def test_tiny_steps_give_finite_scaled_weights():
    # a 1e-170 step enters only through rho and the final division by tau;
    # products of offsets in units of time would underflow to 0
    beta = math.pi
    unit = uniform_coeffs(beta)
    cf = nonuniform_coeffs(-1e-170, 0.0, 1e-170, beta)
    assert all(math.isfinite(w) for w in cf.a)
    np.testing.assert_allclose(np.array(cf.a) * 1e-170, unit.a, rtol=1e-15)
    np.testing.assert_allclose(cf.b + cf.c, unit.b + unit.c, rtol=1e-15)
    # with a power-of-two step the scaling is exact
    h = math.ldexp(1.0, -565)
    cf = nonuniform_coeffs(-h, 0.0, h, beta)
    assert cf.a == tuple(math.ldexp(w, 565) for w in unit.a)
    assert (cf.b, cf.c) == (unit.b, unit.c)


def test_weights_scale_exactly_with_power_of_two_triples():
    # scaling the triple by 2^k scales tau and t* exactly and keeps rho's
    # bits, so a scales by exactly 2^-k and b, c keep their bits
    rng = np.random.default_rng(7)
    for _ in range(2000):
        t0 = rng.uniform(-5.0, 5.0)
        t1 = t0 + rng.uniform(0.05, 2.0)
        t2 = t1 + rng.uniform(0.05, 2.0)
        beta = rng.choice([math.sqrt(2), 2.0, math.pi, rng.uniform(1.01, 4.0)])
        k = int(rng.integers(-1000, 1000))
        cf = nonuniform_coeffs(t0, t1, t2, beta)
        scaled = nonuniform_coeffs(*(math.ldexp(t, k) for t in (t0, t1, t2)), beta)
        assert scaled.a == tuple(math.ldexp(w, -k) for w in cf.a)
        assert (scaled.b, scaled.c) == (cf.b, cf.c)
        assert scaled.t_eval == math.ldexp(cf.t_eval, k)


@pytest.mark.parametrize("beta, r_cross", [(math.sqrt(2), 1.84), (2.0, 1.55),
                                           (math.pi, 1.33)])
def test_a0_over_a2_is_a_function_of_the_step_ratio(beta, r_cross):
    # |a0/a2| = (2 beta - 1) / (rho (rho + 2 beta)), rho = tau_n / tau_{n+1};
    # it reaches 1 at the step ratio r = 1/rho where
    # rho^2 + 2 beta rho - (2 beta - 1) = 0
    rng = np.random.default_rng(11)
    for rho in rng.uniform(0.05, 4.0, size=200):
        a0, _, a2 = nonuniform_coeffs(-rho, 0.0, 1.0, beta).a
        want = (2.0 * beta - 1.0) / (rho * (rho + 2.0 * beta))
        assert abs(a0 / a2) == pytest.approx(want, rel=1e-14)
    r = 1.0 / (math.sqrt(beta * beta + 2.0 * beta - 1.0) - beta)
    assert r == pytest.approx(r_cross, abs=0.005)
    a0, _, a2 = nonuniform_coeffs(0.0, 1.0, 1.0 + r, beta).a
    assert abs(a0 / a2) == pytest.approx(1.0, rel=1e-13)


def random_triples(count, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t0 = rng.uniform(-5.0, 5.0)
        tau1 = rng.uniform(0.05, 2.0)
        tau2 = rng.uniform(0.05, 2.0)
        beta = rng.uniform(1.01, 4.0)
        yield (t0, t0 + tau1, t0 + tau1 + tau2), beta


def test_consistency_sums_on_random_triples():
    worst = 0.0
    for nodes, beta in random_triples(1000):
        cf = nonuniform_coeffs(*nodes, beta)
        worst = max(worst, max(abs(g) for g in consistency_gaps(cf, nodes)))
    assert worst <= 1e-11


def test_lagrange_route_agrees_with_vandermonde():
    worst = 0.0
    for nodes, beta in random_triples(1000, seed=99):
        cv = nonuniform_coeffs(*nodes, beta)
        cl = lagrange_coeffs(*nodes, beta)
        for v, l in zip(cv.a + cv.b + cv.c, cl.a + cl.b + cl.c):
            worst = max(worst, abs(v - l) / max(abs(v), 1e-30))
    assert worst <= 1e-12


def test_lagrange_uniform_node_examples():
    cf = lagrange_coeffs(-1.0, 0.0, 1.0, 2.0)
    np.testing.assert_allclose(cf.b, (-1.0, 2.0), atol=1e-14)
    np.testing.assert_allclose(cf.a, (1.5, -4.0, 2.5), atol=1e-13)


def test_derivative_weights_exact_on_quadratics():
    # the a weights must differentiate any quadratic exactly at t*
    rng = np.random.default_rng(7)
    worst = 0.0
    for nodes, beta in random_triples(300, seed=5):
        p = rng.uniform(-2, 2, size=3)  # p0 + p1 t + p2 t^2
        cf = nonuniform_coeffs(*nodes, beta)
        vals = [p[0] + p[1] * t + p[2] * t * t for t in nodes]
        deriv = sum(w * v for w, v in zip(cf.a, vals))
        exact = p[1] + 2.0 * p[2] * cf.t_eval
        worst = max(worst, abs(deriv - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-11


def test_interpolants_exact_on_linears():
    rng = np.random.default_rng(8)
    for nodes, beta in random_triples(300, seed=6):
        p = rng.uniform(-2, 2, size=2)
        cf = nonuniform_coeffs(*nodes, beta)
        line = lambda t: p[0] + p[1] * t
        want = line(cf.t_eval)
        got_b = cf.b[0] * line(nodes[1]) + cf.b[1] * line(nodes[2])
        got_c = cf.c[0] * line(nodes[0]) + cf.c[1] * line(nodes[1])
        assert got_b == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got_c == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_nonuniform_rejects_bad_nodes():
    with pytest.raises(CoefficientError):
        nonuniform_coeffs(0.0, 0.0, 1.0, 2.0)
    with pytest.raises(CoefficientError):
        nonuniform_coeffs(1.0, 0.5, 2.0, 2.0)
    with pytest.raises(CoefficientError):
        nonuniform_coeffs(0.0, 0.5, 1.0, 1.0)


def test_nonuniform_rejects_near_degenerate_triple(monkeypatch):
    # a microscopically thin middle interval blows up the condition number
    assert vandermonde_condition(0.0, 1e-14, 1.0, 2.0) > 1e12
    with pytest.raises(CoefficientError):
        nonuniform_coeffs(0.0, 1e-14, 1.0, 2.0)
    # the guard reads the module's limit
    monkeypatch.setattr(coeffs, "COND_LIMIT", 1e40)
    nonuniform_coeffs(0.0, 1e-14, 1.0, 2.0)


def offset_vandermonde(nodes, beta):
    t_prev, t_curr, t_next = nodes
    d = (np.array(nodes) - (t_curr + beta * (t_next - t_curr))) / (t_next - t_curr)
    return np.vstack([np.ones(3), d, d * d])


def test_closed_form_condition_matches_numpy():
    rng = np.random.default_rng(23)
    triples = [tuple(np.sort(rng.uniform(-5.0, 5.0, 3))) for _ in range(200)]
    # near-degenerate, but still where numpy's inverse keeps ten digits
    triples += [(0.0, 1e-2, 1.0), (0.0, 1e-4, 1.0), (0.0, 0.99, 1.0),
                (0.0, 1.0 - 1e-6, 1.0), (0.0, 1.0, 1.0 + 1e-6)]
    for nodes in triples:
        beta = float(rng.uniform(1.01, 4.0))
        want = np.linalg.cond(offset_vandermonde(nodes, beta), 1)
        assert vandermonde_condition(*nodes, beta) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-14])
def test_closed_form_condition_exact_where_numpy_loses_digits(gap):
    # numpy's inverse is off by about cond * eps here; the reference is a
    # 50-digit inverse built from the exact step ratio of the float nodes
    with mp.workdps(50):
        rho = mp.mpf(gap) / (1 - mp.mpf(gap))
        dm = [-(rho + 2), mp.mpf(-2), mp.mpf(-1)]
        vm = mp.matrix([[1, 1, 1], dm, [x * x for x in dm]])
        norm1 = lambda m: max(sum(abs(m[i, j]) for i in range(3)) for j in range(3))
        want = float(norm1(vm) * norm1(vm**-1))
    assert vandermonde_condition(0.0, gap, 1.0, 2.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("nodes, admitted", [
    ((0.0, 1.0, 2.0), True),
    ((0.0, 0.3, 1.0), True),
    ((0.0, 1e-3, 1.0), True),     # condition 4.2e4
    ((0.0, 1.0, 1.001), False),   # condition 3.0e6
])
def test_guard_verdict_invariant_to_shift_and_scale(nodes, admitted, monkeypatch):
    # the guard reads the shape of the triple, not its time scale
    monkeypatch.setattr(coeffs, "COND_LIMIT", 1e6)
    for s in (1e-8, 1.0, 1e8):
        triple = [5.0 + s * t for t in nodes]
        if admitted:
            nonuniform_coeffs(*triple, 2.0)
        else:
            with pytest.raises(CoefficientError, match="near-degenerate"):
                nonuniform_coeffs(*triple, 2.0)


@pytest.mark.parametrize("nodes, beta", [((0.0, 0.3, 1.0), math.sqrt(2)),
                                         ((0.0, 1.0, 1.001), 2.0),
                                         ((0.5, 0.6, 0.7), math.pi)])
def test_nonuniform_checks_its_triple_once_and_guards_its_condition(
        nodes, beta, monkeypatch):
    checks, check = [], coeffs._check_nodes

    def counting(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(coeffs, "_check_nodes", counting)
    nonuniform_coeffs(*nodes, beta)
    assert checks == [(*nodes, beta)]
    # the guard compares vandermonde_condition itself: a limit one ulp
    # below it rejects the triple, the value itself admits it
    monkeypatch.setattr(coeffs, "_check_nodes", check)
    cond = vandermonde_condition(*nodes, beta)
    monkeypatch.setattr(coeffs, "COND_LIMIT", cond)
    nonuniform_coeffs(*nodes, beta)
    monkeypatch.setattr(coeffs, "COND_LIMIT", math.nextafter(cond, 0.0))
    with pytest.raises(CoefficientError, match="near-degenerate"):
        nonuniform_coeffs(*nodes, beta)


def test_integrate_on_tiny_graded_grid():
    # steps of order 1e-7 pass the guard as readily as steps of order 1
    p = example1()
    g = p.space_grid(4, 4)
    u, report = integrate(p, graded_grid(1e-6, 8, 0.75), g, 2.0)
    assert np.all(np.isfinite(u))
    assert len(report.steps) == 7
