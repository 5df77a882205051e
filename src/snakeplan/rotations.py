"""Commuting-block spectral form of skew matrices and SO(n) logarithms.

A real skew matrix decomposes as B = sum_j theta_j B_j with theta_j the
distinct positive singular values (each of even multiplicity), the B_j
supported on mutually orthogonal even-dimensional planes-sums E_j, and
B_j^3 = -B_j.  A special-orthogonal Q is a commuting product of planar
rotations Q = prod_j Exp(theta_j B_j) on the same kind of block data, with
angles folded into (0, pi].  so_log reads the blocks off the real Schur form
of Q; skew_spectral takes them from so_log of B's Cayley transform.  Frames
are canonical: each x is the unit projection of the lowest axis that keeps
at least half the largest projection, and y = B_j x.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

__all__ = [
    "RotationBlock",
    "RotationBlocks",
    "skew_spectral",
    "so_log",
    "so_exp_blocks",
    "planar_rotation",
]

ANGLE_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class RotationBlock:
    """One commuting block: angle, orthonormal 2-frames, and its generator."""

    theta: float
    planes: tuple  # tuple of (x, y) orthonormal pairs spanning E_j
    generator: np.ndarray  # sum_r (y_r x_r^T - x_r y_r^T), vanishes off E_j

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError(f"block angle must be positive, got {self.theta}")


@dataclass(frozen=True)
class RotationBlocks:
    dim: int
    blocks: tuple = ()
    kernel_basis: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        kb = self.kernel_basis
        if kb is None:
            kb = np.zeros((self.dim, 0))
        kb = np.asarray(kb, dtype=float)
        object.__setattr__(self, "kernel_basis", kb)
        thetas = [b.theta for b in self.blocks]
        if any(t2 >= t1 for t1, t2 in zip(thetas, thetas[1:])):
            raise ValueError("block angles must be strictly decreasing")

    @property
    def thetas(self) -> list:
        return [b.theta for b in self.blocks]

    def generator_sum(self) -> np.ndarray:
        """sum_j theta_j B_j, the skew matrix the blocks reconstruct."""
        out = np.zeros((self.dim, self.dim))
        for b in self.blocks:
            out += b.theta * b.generator
        return out


def _take_axis(P: np.ndarray):
    """Unit x = P e_i for the lowest axis i with |P e_i|^2 >= max_k |P e_k|^2 / 2,
    and the projector P - x x^T left after it."""
    d = np.einsum("ij,ij->j", P, P)
    i = int(np.argmax(d >= 0.5 * d.max()))
    x = P[:, i] / np.sqrt(d[i])
    return x, P - x[:, None] * x


def _canonical_block(theta: float, X: np.ndarray, Y: np.ndarray) -> RotationBlock:
    """The block of the planes (X[:, r], Y[:, r]) with frames built from its
    projector P = sum_r x_r x_r^T + y_r y_r^T and generator
    G = sum_r y_r x_r^T - x_r y_r^T alone, which do not depend on the frames
    Schur picked.  Each x is an axis projection of what P has left and
    y = G x; at theta = pi, G is not fixed by Q, so y is one too.
    """
    P, G = X @ X.T + Y @ Y.T, Y @ X.T - X @ Y.T
    planes = []
    for _ in range(X.shape[1]):
        x, P = _take_axis(P)
        if theta == np.pi:
            y, P = _take_axis(P)
        else:
            y = G @ x
            P = P - y[:, None] * y
        planes.append((x, y))
    gen = sum(y[:, None] * x - x[:, None] * y for x, y in planes)
    return RotationBlock(theta=theta, planes=tuple(planes), generator=gen)


def _log_blocks(Q: np.ndarray, min_angle: float = 0.0) -> RotationBlocks:
    """Rotation blocks of a special-orthogonal Q from its real Schur form.

    Planes whose angle is at most min_angle join the +1 eigenspace, the kernel.
    """
    n = Q.shape[0]
    T, Z = scipy.linalg.schur(Q, output="real")
    planes, minus_ones, kernel = [], [], []  # planes: (theta, x, y)
    k = 0
    while k < n:
        if k + 1 < n and abs(T[k + 1, k]) > 1e-12:
            s = 0.5 * (T[k + 1, k] - T[k, k + 1])
            theta = float(np.arctan2(abs(s), 0.5 * (T[k, k] + T[k + 1, k + 1])))
            x, y = Z[:, k], Z[:, k + 1]
            if theta <= min_angle:
                kernel += [x, y]
            else:  # orient the frame so the rotation angle is +theta
                planes.append((theta, x, y) if s > 0 else (theta, y, x))
            k += 2
        else:
            (kernel if T[k, k] > 0 else minus_ones).append(Z[:, k])
            k += 1
    # -1 eigenvalues pair into theta = pi planes (even count since det = +1)
    if len(minus_ones) % 2 != 0:
        raise ValueError("odd count of -1 eigenvalues; input not special orthogonal")
    planes += [(np.pi, x, y) for x, y in zip(minus_ones[::2], minus_ones[1::2])]

    clusters: list = []  # planes within ANGLE_CLUSTER_TOL of a cluster's largest angle
    for p in sorted(planes, key=lambda p: -p[0]):
        if clusters and clusters[-1][0][0] - p[0] <= ANGLE_CLUSTER_TOL:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    blocks = []
    for cluster in clusters:
        thetas, xs, ys = zip(*cluster)
        blocks.append(_canonical_block(sum(thetas) / len(thetas), np.array(xs).T, np.array(ys).T))
    K = np.array(kernel).reshape(-1, n).T
    P = K @ K.T
    for r in range(K.shape[1]):
        K[:, r], P = _take_axis(P)
    return RotationBlocks(dim=n, blocks=tuple(blocks), kernel_basis=K)


def skew_spectral(B: np.ndarray, tol: float = 1e-10) -> RotationBlocks:
    """Split a skew matrix into commuting rotation generators.

    The Cayley transform C = (Id - B/a)^{-1} (Id + B/a), a = |B|_2, is a
    rotation with B's planes and kernel and the angles
    phi = 2 arctan(theta / a) in (0, pi/2], so the so_log blocks of C give
    B's with theta = a tan(phi / 2), accurate relative to |B|.  Planes with
    theta <= tol * max(1, a) join the kernel.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError("skew_spectral needs a square matrix")
    if np.linalg.norm(B + B.T) > max(tol, 1e-12 * max(1.0, np.linalg.norm(B))):
        raise ValueError("input is not skew-symmetric within tolerance")
    B = 0.5 * (B - B.T)
    if n == 0:
        return RotationBlocks(dim=0)

    a = float(np.linalg.norm(B, 2)) or 1.0
    C = np.linalg.solve(np.eye(n) - B / a, np.eye(n) + B / a)
    rb = _log_blocks(C, min_angle=2.0 * np.arctan(tol * max(1.0, a) / a))
    return replace(rb, blocks=tuple(replace(b, theta=float(a * np.tan(0.5 * b.theta))) for b in rb.blocks))


def so_log(Q: np.ndarray, tol: float = 1e-9):
    """Principal logarithm of a special-orthogonal matrix as rotation blocks.

    Returns (B, blocks) with Exp(B) = Q, angles folded into (0, pi]; the
    eigenspace of eigenvalue 1 becomes the kernel basis.  Plane and kernel
    frames are canonical: built from each block's projector and generator,
    which do not depend on the Schur basis.  Rejects improper or
    non-orthogonal input.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("so_log needs a square matrix")
    if np.linalg.norm(Q.T @ Q - np.eye(n)) > max(tol, 1e-10):
        raise ValueError("input is not orthogonal within tolerance")
    if np.linalg.det(Q) < 0.0:
        raise ValueError("input is improper (det = -1); no real log in so(n)")

    rb = _log_blocks(Q)
    if np.linalg.norm(so_exp_blocks(rb) - Q) > max(tol, 1e-9) * 10:
        raise ValueError("so_log reconstruction failed; input too far from SO(n)")
    return rb.generator_sum(), rb


def planar_rotation(G: np.ndarray, angle) -> np.ndarray:
    """Exp(angle * G) = Id + sin(a) G + (1 - cos a) G^2 for a generator with G^3 = -G.

    An array of angles gives a stack of rotations, one per angle.
    """
    a = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(G.shape[0]) + np.sin(a) * G + (1.0 - np.cos(a)) * (G @ G)


def so_exp_blocks(blocks: RotationBlocks) -> np.ndarray:
    """Commuting product of closed-form planar rotations Exp(theta_j B_j)."""
    Q = np.eye(blocks.dim)
    for b in blocks.blocks:
        Q = planar_rotation(b.generator, b.theta) @ Q
    return Q
