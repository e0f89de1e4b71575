import numpy as np
import pytest

from fisherkpp.problems import (
    LOGISTIC_P,
    PQ_PRODUCT,
    Nonlinearity,
    example1,
    example2,
    f_eval,
    source_at_shifted_time,
)

from oracles import compatibility_gap, pde_residual, residual_sample_points as sample_points


def test_f_eval_values():
    assert f_eval(0.5, Nonlinearity(LOGISTIC_P, p=1)) == pytest.approx(0.25)
    assert f_eval(0.5, Nonlinearity(PQ_PRODUCT, p=2, q=1)) == pytest.approx(0.125)
    for nl in (Nonlinearity(LOGISTIC_P, p=3), Nonlinearity(PQ_PRODUCT, p=2, q=4)):
        assert f_eval(0.0, nl) == 0.0
        assert f_eval(1.0, nl) == 0.0


def test_f_eval_vectorized():
    u = np.array([0.0, 0.25, 1.0])
    out = f_eval(u, Nonlinearity(LOGISTIC_P, p=1))
    np.testing.assert_allclose(out, u * (1 - u))


@pytest.mark.parametrize("nl, u, match", [
    (Nonlinearity(LOGISTIC_P, p=0.5), -0.1, r"logistic_p: u\*\*p .*p=0.5.*u=-0.1"),
    (Nonlinearity(PQ_PRODUCT, p=0.5, q=1), [0.2, -0.1], r"pq_product: u\*\*p .*u=-0.1"),
    (Nonlinearity(PQ_PRODUCT, p=1, q=0.5), [0.5, 1.1],
     r"pq_product: \(1 - u\)\*\*q .*q=0.5.*u=1.1"),
], ids=["logistic-p", "pq-p", "pq-q"])
def test_f_eval_fractional_power_out_of_range_raises(nl, u, match):
    with pytest.raises(ValueError, match=match):
        f_eval(u, nl)


def test_f_eval_integer_power_of_negative_is_finite():
    got = f_eval(-0.1, Nonlinearity(LOGISTIC_P, p=2))
    assert got == pytest.approx(-0.1 * (1.0 - 0.01))
    assert np.isfinite(f_eval([-0.1, 1.1], Nonlinearity(PQ_PRODUCT, p=2, q=3))).all()


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        Nonlinearity("cubic")


def test_example1_exact_peak_and_start():
    p = example1()
    assert p.exact(np.pi / 2, np.pi / 2, np.pi / 2) == pytest.approx(1.0)
    x = np.linspace(0, np.pi, 11)
    np.testing.assert_array_equal(p.exact(x, x, 0.0), np.zeros(11))
    np.testing.assert_array_equal(p.initial(x, x), np.zeros(11))


def test_example1_data_compatible_at_t0():
    assert compatibility_gap(example1()) <= 1e-12


def test_example1_manufactured_source_satisfies_pde():
    p = example1()
    worst = max(abs(pde_residual(p, x, y, t))
                for x, y, t in sample_points(p, 100, seed=42))
    assert worst <= 1e-10


def test_example2_wave_values():
    p = example2()
    assert p.exact(0.0, 0.0, 0.0) == pytest.approx(0.25, rel=1e-15)
    # limits of the profile far behind / ahead of the front
    assert abs(p.exact(-50.0, 50.0, 0.0) - 1.0) < 1e-10
    assert p.exact(50.0, -50.0, 0.0) < 1e-20


def test_example2_data_compatible_at_t0():
    assert compatibility_gap(example2()) <= 1e-12


def test_example2_wave_satisfies_pde():
    # guards the adopted traveling-wave form against the printed-data typo
    p = example2()
    worst = max(abs(pde_residual(p, x, y, t))
                for x, y, t in sample_points(p, 100, seed=43))
    assert worst <= 1e-10


def test_source_at_shifted_time_zero_source():
    p = example2()
    g = p.space_grid(6, 6)
    assert np.all(source_at_shifted_time(p, 0.4, g) == 0.0)


def test_source_at_shifted_time_at_zero():
    # t* = 0 kills every sin(t) factor, leaving cos(0) sin(x) sin(y)
    p = example1()
    g = p.space_grid(8, 8)
    got = source_at_shifted_time(p, 0.0, g).reshape(g.shape)
    X, Y = np.meshgrid(g.xs, g.ys)
    np.testing.assert_allclose(got, np.sin(X) * np.sin(Y), atol=1e-13)


def test_source_matches_pointwise_loop():
    p = example1()
    g = p.space_grid(7, 7)  # 6x6 interior
    t_star = 0.13 + 1.5 * (0.31 - 0.13)
    got = source_at_shifted_time(p, t_star, g).reshape(g.shape)
    for j, yv in enumerate(g.ys):
        for i, xv in enumerate(g.xs):
            assert got[j, i] == pytest.approx(
                float(p.source(xv, yv, t_star)), rel=1e-14)


def test_space_grid_from_domain():
    g = example2().space_grid(10, 12)
    assert (g.xa, g.xb, g.ya, g.yb) == (-50.0, 50.0, -50.0, 50.0)
    assert (g.nx, g.ny) == (10, 12)
