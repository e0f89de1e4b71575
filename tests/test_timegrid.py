import mpmath as mp
import numpy as np
import pytest

from fisherkpp.timegrid import (
    GridConstructionError,
    graded_grid,
    time_grid,
    uniform_grid,
)

# direct evaluation of the three grading formulas at 40 digits, frozen
# (T=1, M=8, gamma=3/4)
GRADED_M8_G075 = [
    0.0,
    0.10311723172381462,
    0.22299795035019837,
    0.34955190524358476,
    0.47898793429666797,
    0.6095125141398237,
    0.7401756802061773,
    0.8704419898686029,
    1.0,
]


def mp_graded_nodes(T, M, gamma):
    """High-precision re-evaluation of the node formulas (test oracle)."""
    mp.mp.dps = 40
    out = []
    for n in range(M + 1):
        z = mp.mpf(n)
        mu = (mp.mpf(gamma) / 2) * M * (mp.log(M + 2) - mp.log(z + 1)) / (M - z + 1)
        y = (M - z) / mp.mpf(M)
        out.append(float(T - T * mp.tanh(mu * y) / mp.tanh(mu)))
    return out


def test_uniform_quarter_nodes():
    tg = uniform_grid(1.0, 4)
    assert tg.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert tg.kind == "uniform"
    assert tg.gamma is None


def test_uniform_constant_steps():
    tg = uniform_grid(2.0, 8)
    assert np.all(tg.steps == 0.25)


def test_uniform_rejects_single_step():
    with pytest.raises(GridConstructionError):
        uniform_grid(1.0, 1)


def test_uniform_rejects_nonpositive_T():
    with pytest.raises(GridConstructionError):
        uniform_grid(0.0, 4)
    with pytest.raises(GridConstructionError):
        uniform_grid(-1.0, 4)


def test_graded_endpoints_exact():
    tg = graded_grid(1.0, 8, 0.75)
    assert tg.nodes[0] == 0.0
    assert tg.nodes[-1] == 1.0
    tg = graded_grid(2.5, 13, 1.5)
    assert tg.nodes[0] == 0.0
    assert abs(tg.nodes[-1] - 2.5) <= np.spacing(2.5)


def test_graded_matches_frozen_oracle_values():
    tg = graded_grid(1.0, 8, 0.75)
    np.testing.assert_allclose(tg.nodes, GRADED_M8_G075, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("T,M,gamma", [(1.0, 8, 0.75), (3.0, 12, 0.5), (1.0, 40, 1.5)])
def test_graded_matches_high_precision_oracle(T, M, gamma):
    tg = graded_grid(T, M, gamma)
    np.testing.assert_allclose(tg.nodes, mp_graded_nodes(T, M, gamma),
                               rtol=5e-15, atol=1e-16)


@pytest.mark.parametrize("M", [4, 16, 128, 1024])
@pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0, 1.5])
def test_graded_monotone_and_hits_endpoints(M, gamma):
    tg = graded_grid(1.0, M, gamma)
    assert tg.nodes[0] == 0.0
    assert abs(tg.nodes[-1] - 1.0) <= np.spacing(1.0)
    assert np.all(np.diff(tg.nodes) > 0)


def test_step_ratio_grows_with_gamma():
    # stronger grading stretches the step distribution
    for M in (16, 64, 256):
        ratios = []
        for gamma in (0.5, 0.75, 1.0, 1.5):
            steps = graded_grid(1.0, M, gamma).steps
            ratios.append(steps.max() / steps.min())
        assert ratios == sorted(ratios)
        assert ratios[0] > 1.0


def test_graded_interior_differs_from_uniform():
    tu = uniform_grid(1.0, 8)
    tg = graded_grid(1.0, 8, 0.75)
    assert np.all(tu.nodes[1:-1] != tg.nodes[1:-1])


def test_graded_rejects_bad_gamma():
    with pytest.raises(GridConstructionError):
        graded_grid(1.0, 8, 0.0)
    with pytest.raises(GridConstructionError):
        graded_grid(1.0, 8, -0.5)


def test_nodes_are_read_only():
    tg = uniform_grid(1.0, 4)
    with pytest.raises(ValueError):
        tg.nodes[0] = 1.0


def test_time_grid_picks_the_family_by_gamma():
    np.testing.assert_array_equal(time_grid(2.0, 8).nodes, uniform_grid(2.0, 8).nodes)
    graded = time_grid(2.0, 8, 0.75)
    assert graded.gamma == 0.75
    np.testing.assert_array_equal(graded.nodes, graded_grid(2.0, 8, 0.75).nodes)
