import numpy as np
import pytest

from snakeplan.spline import not_a_knot


def _grid(rng, N, kind):
    if kind == "uniform":
        return np.linspace(0.0, 1.0, N)
    # random spacings whose ratio is at most 10
    steps = rng.uniform(1.0, 10.0, N - 1)
    return np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()


def _probe_times(rng, x):
    """The samples, random times inside, and times a few ulps past both ends."""
    ulps = np.arange(1, 4) * np.spacing(x[-1])
    return np.concatenate([x, rng.uniform(x[0], x[-1], 200), x[0] - ulps, x[-1] + ulps])


def _scaled(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("N", [2, 3, 4, 5, 17, 129, 400, 1025])
@pytest.mark.parametrize("kind", ["uniform", "random"])
def test_matches_scipy_cubic_spline(N, kind):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(N)
    x = _grid(rng, N, kind)
    y = rng.normal(size=(N, 3))
    curve, curve_dot = not_a_knot(x, y)
    oracle = interpolate.CubicSpline(x, y, axis=0)
    ts = _probe_times(rng, x)
    assert curve(ts).shape == curve_dot(ts).shape == (ts.shape[0], 3)
    assert _scaled(curve(ts), oracle(ts)) <= 1e-14
    assert _scaled(curve_dot(ts), oracle.derivative()(ts)) <= 1e-14


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_reproduces_polynomials(rng, degree):
    # 2 samples give the line and 3 the parabola through them; from 4 on the
    # not-a-knot spline is exact for cubics
    N = degree + 1
    for x in (_grid(rng, N, "random"), _grid(rng, 3 * N, "random")):
        coeffs = rng.normal(size=(degree + 1, 2))
        powers = np.arange(degree + 1)

        def poly(t):
            return (t[:, None] ** powers) @ coeffs

        def poly_dot(t):
            return (powers[1:] * t[:, None] ** (powers[1:] - 1)) @ coeffs[1:]

        curve, curve_dot = not_a_knot(x, poly(x))
        ts = _probe_times(rng, x)
        assert np.abs(curve(ts) - poly(ts)).max() <= 1e-14 * np.abs(coeffs).sum()
        assert np.abs(curve_dot(ts) - poly_dot(ts)).max() <= 1e-13 * np.abs(coeffs).sum()


@pytest.mark.parametrize("times, points", [
    ([[0.0, 1.0]], [[0.0], [1.0]]),  # times not 1-D
    ([0.0, 1.0], [0.0, 1.0]),  # points not 2-D
    ([0.0, 0.5, 1.0], [[0.0], [1.0]]),  # lengths differ
    ([0.0], [[1.0]]),  # one sample
    ([0.0, 1.0, 1.0, 2.0], np.zeros((4, 2))),  # repeated time
    ([0.0, 2.0, 1.0, 3.0], np.zeros((4, 2))),  # decreasing time
    ([0.0, 1.0, np.inf], np.zeros((3, 2))),  # infinite time
    ([0.0, 1.0, 2.0], [[0.0, 0.0], [np.nan, 0.0], [1.0, 0.0]]),  # point not finite
])
def test_rejects_bad_samples(times, points):
    with pytest.raises(ValueError):
        not_a_knot(times, points)
