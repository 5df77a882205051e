"""Not-a-knot cubic spline through sampled curve points, on numpy alone.

`not_a_knot(times, points)` returns the interpolant and its derivative as
array-valued callables, the form `planner.horizontal_lift` takes: each maps a
1-D array of times to an array of shape (len, n).  Times outside
[times[0], times[-1]] are evaluated on the nearest end piece, so a time one
ulp past either end is harmless.

The slopes at the samples solve one tridiagonal system in O(N): a continuous
second derivative at each interior sample, and a continuous third derivative
at the second and the second-to-last sample (the not-a-knot end condition).
With 2 samples the spline is the line through them, with 3 the parabola.
From 4 samples on the elimination is scipy.interpolate.CubicSpline's,
operation for operation, and the evaluation is the same power sum, so the two
agree bit for bit wherever scipy's LAPACK solve exchanges no rows, which
includes every uniform grid.
"""

from __future__ import annotations

import numpy as np


def _knot_slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Derivative of the spline at each sample, shape (N, n)."""
    N = x.shape[0]
    dxr = dx[:, None]
    if N == 2:
        return np.stack([slope[0], slope[0]])
    if N == 3:
        mid = (dxr[1] * slope[0] + dxr[0] * slope[1]) / (dxr[0] + dxr[1])
        return np.stack([2 * slope[0] - mid, mid, 2 * slope[1] - mid])
    e0, e1 = float(x[2] - x[0]), float(x[-1] - x[-3])
    rhs = np.empty((N, slope.shape[1]))
    rhs[0] = ((dxr[0] + 2 * e0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / e0
    rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    rhs[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * e1 + dxr[-1]) * dxr[-2] * slope[-1]) / e1
    # row i is lower[i-1] s[i-1] + diag[i] s[i] + upper[i] s[i+1]
    h = dx.tolist()
    diag = [h[1]] + [2 * (a + b) for a, b in zip(h, h[1:])] + [h[-2]]
    upper = [e0] + h[:-1]
    lower = h[1:] + [e1]
    # every pivot is positive (each interior one exceeds the entry to its
    # right), so no row exchange is needed; the pivots depend on the times
    # alone, and the two sweeps run once per coordinate
    factors = []
    for i, low in enumerate(lower):
        f = low / diag[i]
        diag[i + 1] -= f * upper[i]
        factors.append(f)
    cols = rhs.T.tolist()
    for col in cols:
        p = col[0]
        for i, f in enumerate(factors, 1):
            p = col[i] = col[i] - f * p
        p = col[-1] = p / diag[-1]
        for i in range(N - 2, -1, -1):
            p = col[i] = (col[i] - upper[i] * p) / diag[i]
    return np.array(cols).T


def not_a_knot(times, points) -> tuple:
    """(curve, curve_dot): the not-a-knot cubic spline through (times, points)
    and its derivative.

    times has shape (N,) and is strictly increasing, points (N, n), N >= 2,
    and both are finite; anything else raises ValueError.
    """
    x = np.asarray(times, dtype=float)
    y = np.asarray(points, dtype=float)
    if x.ndim != 1 or y.ndim != 2 or y.shape[0] != x.shape[0] or x.shape[0] < 2:
        raise ValueError(f"a spline needs times (N,) and points (N, n) with N >= 2, "
                         f"got {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("spline times and points must be finite")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise ValueError("spline times must be strictly increasing")
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    s = _knot_slopes(x, dx, slope)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    # on the piece from x[k], p(h) = c0 + c1 h + c2 h^2 + c3 h^3, h = time - x[k]
    c3, c2 = t / dxr, (slope - s[:-1]) / dxr - t
    value = [np.ascontiguousarray(c) for c in (y[:-1], s[:-1], c2, c3)]
    rate = [np.ascontiguousarray(c) for c in (s[:-1], 2 * c2, 3 * c3)]
    inner, n = x[1:-1], y.shape[1]

    def locate(ts, table):
        """Each time's piece coefficients and its offset h into the piece,
        all of shape (len, n)."""
        ts = np.asarray(ts, dtype=float)
        piece = np.searchsorted(inner, ts, side="right")
        h = np.repeat(ts - x.take(piece), n).reshape(-1, n)
        return h, [c.take(piece, axis=0) for c in table]

    # the powers of h are summed lowest first, as scipy's PPoly does
    def curve(ts):
        h, (a, b, c, d) = locate(ts, value)
        b *= h
        b += a
        hh = h * h
        c *= hh
        b += c
        hh *= h
        d *= hh
        b += d
        return b

    def curve_dot(ts):
        h, (a, b, c) = locate(ts, rate)
        b *= h
        b += a
        h *= h
        c *= h
        b += c
        return b

    return curve, curve_dot
