import numpy as np
import pytest


def series_expm(M: np.ndarray, terms: int = 30) -> np.ndarray:
    """Independent scaling-and-squaring Taylor exponential (test oracle)."""
    M = np.asarray(M, dtype=float)
    norm = np.linalg.norm(M)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 2) if norm > 0.5 else 0
    S = M / (2.0**squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ S / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def l2_norm(u, v: np.ndarray) -> float:
    """L^2 norm of a per-node field v on configuration u's quadrature."""
    return float(np.sqrt(np.einsum("i,ij,ij->", u.weights, v, v)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


@pytest.fixture
def series_exp():
    return series_expm


# rapidities from the identity through the Taylor branch of exp_h to 15, and
# dimensions up to 32, for the factor pass and everything that reads it
RAPIDITIES = (0.0, 1e-12, 1e-6, 1.0, 8.0, 15.0)
DIMS = (2, 3, 8, 32)


def lorentz_sample(rng, n: int, w: float, eps: float = 1.0, det: float = 1.0):
    """(A, u) with A = diag(eps, R) @ exp_h(u), |u| = w and det R = det."""
    from snakeplan.generate import random_rotation
    from snakeplan.lorentz import exp_h

    R = random_rotation(rng, n)
    R[:, 0] *= det
    d = rng.normal(size=n)
    u = w * d / np.linalg.norm(d)
    P = np.eye(n + 1)
    P[0, 0] = eps
    P[1:, 1:] = R
    return P @ exp_h(u), u


def turn_node(frame, s: int, j: int, angle: float) -> None:
    """Turn node j of a leg's node set s by angle, in place, in the leg's
    frame coordinates (planner._leg_frame's (z0perp, |z0perp|^2, xi), node
    s = xi_0s z0perp + F xi_s[1:]): a rotation in the plane of the node's
    z0perp and the frame's first direction, which keeps it a unit vector."""
    _, rho2, xi = frame
    rho = np.sqrt(rho2[j])
    a, b = rho * xi[0, s, j], xi[1, s, j]
    xi[0, s, j] = (np.cos(angle) * a - np.sin(angle) * b) / rho
    xi[1, s, j] = np.sin(angle) * a + np.cos(angle) * b
