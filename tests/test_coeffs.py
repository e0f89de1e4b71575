import math

import numpy as np
import pytest

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
    np.testing.assert_allclose(cf.a, (1.5, -4.0, 2.5), atol=1e-14)
    np.testing.assert_allclose(cf.b, (-1.0, 2.0), atol=1e-14)
    np.testing.assert_allclose(cf.c, (-2.0, 3.0), atol=1e-14)
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


def test_nonuniform_rejects_near_degenerate_triple():
    # a microscopically thin middle interval blows up the condition number
    assert vandermonde_condition(0.0, 1e-14, 1.0, 2.0) > 1e12
    with pytest.raises(CoefficientError):
        nonuniform_coeffs(0.0, 1e-14, 1.0, 2.0)
    # the guard is configurable
    nonuniform_coeffs(0.0, 1e-14, 1.0, 2.0, cond_limit=1e40)


@pytest.mark.parametrize("nodes, admitted", [
    ((0.0, 1.0, 2.0), True),
    ((0.0, 0.3, 1.0), True),
    ((0.0, 1e-3, 1.0), True),     # condition 4.2e4
    ((0.0, 1.0, 1.001), False),   # condition 3.0e6
])
def test_guard_verdict_invariant_to_shift_and_scale(nodes, admitted):
    # the guard reads the shape of the triple, not its time scale
    for s in (1e-8, 1.0, 1e8):
        triple = [5.0 + s * t for t in nodes]
        if admitted:
            nonuniform_coeffs(*triple, 2.0, cond_limit=1e6)
        else:
            with pytest.raises(CoefficientError, match="near-degenerate"):
                nonuniform_coeffs(*triple, 2.0, cond_limit=1e6)


def test_integrate_on_tiny_graded_grid():
    # steps of order 1e-7 pass the guard as readily as steps of order 1
    p = example1()
    g = p.space_grid(4, 4)
    u, report = integrate(p, graded_grid(1e-6, 8, 0.75), g, 2.0)
    assert np.all(np.isfinite(u))
    assert len(report.steps) == 7
