"""Commuting-block spectral form of skew matrices and SO(n) logarithms.

A real skew matrix decomposes as B = sum_j theta_j B_j with theta_j the
distinct positive singular values (each of even multiplicity), the B_j
supported on mutually orthogonal even-dimensional planes-sums E_j, and
B_j^3 = -B_j.  A special-orthogonal Q is a commuting product of planar
rotations Q = prod_j Exp(theta_j B_j) on the same kind of block data, with
angles folded into (0, pi].  so_log reads the blocks off one Hermitian
eigen-solve, of a Cayley transform of Q whose pole lies in the widest gap of
Q's spectrum; skew_spectral takes them from so_log of B's Cayley transform.
Frames are canonical: each x is the unit projection of the lowest axis that
keeps at least half the largest projection, and y = B_j x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "RotationBlock",
    "RotationBlocks",
    "skew_spectral",
    "so_log",
    "so_exp_blocks",
    "planar_rotation",
]

ANGLE_CLUSTER_TOL = 1e-8
REAL_ANGLE_TOL = 1e-10  # so_log angles this close to 0 or pi are eigenvalues +1 or -1
SKEW_KERNEL_TOL = 1e-10  # skew_spectral: theta <= tol * max(1, |B|_2) is kernel


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

    def generator_sum(self) -> np.ndarray:
        """sum_j theta_j B_j, the skew matrix the blocks reconstruct."""
        out = np.zeros((self.dim, self.dim))
        for b in self.blocks:
            out += b.theta * b.generator
        return out


def _take_axis(W: np.ndarray) -> np.ndarray:
    """For the projector P = W W^T, the unit x = P e_i of the lowest axis i
    with |P e_i|^2 >= max_k |P e_k|^2 / 2; W may be P itself or a frame."""
    d = (W * W).sum(axis=1).tolist()  # d_i = |W^T e_i|^2 = |P e_i|^2
    half = 0.5 * max(d)
    i = next(k for k, dk in enumerate(d) if dk >= half)
    return W @ (W[i] / math.sqrt(d[i]))


def _deflate(W: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(Id - v v^T) W: the unit v taken out of the range of W."""
    return W - v[:, None] * (v @ W)


def _plane_generator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Generator g with g x = y, g y = -x, zero off span(x, y), for an
    orthonormal pair (x, y)."""
    return np.outer(y, x) - np.outer(x, y)


def _canonical_block(theta: float, W: np.ndarray, G, count: int) -> RotationBlock:
    """The block of `count` planes with projector W W^T and generator G, its
    frames built from those two alone: each x is an axis projection of what
    is left and y = G x.  At theta = pi, Q does not fix G, so it is None
    and y is an axis projection too.
    """
    planes = []
    for r in range(count):
        if r:
            W = _deflate(_deflate(W, x), y)
        x = _take_axis(W)
        y = G @ x if G is not None else _take_axis(_deflate(W, x))
        planes.append((x, y))
    if G is None:
        G = sum(_plane_generator(x, y) for x, y in planes)
    return RotationBlock(theta=theta, planes=tuple(planes), generator=G)


def _newton_schulz(Z: np.ndarray, E: np.ndarray, d: float) -> np.ndarray:
    """The nearest Z with orthonormal columns, by steps Z <- Z - Z E / 2 with
    E = Z^T Z - Id; each takes the departure d = |E| to about 1.5 d^2."""
    for step in range(6):
        if not d > 1e-15:
            break
        if step:
            E = Z.T @ Z - np.eye(Z.shape[1])
        Z = Z - 0.5 * Z @ E
        d = 1.5 * d * d
    return Z


def _log_blocks(Q: np.ndarray, min_angle: float = 0.0) -> RotationBlocks:
    """Rotation blocks of an orthogonal Q from one Hermitian eigen-solve.

    With z = e^{i psi} midway across the widest gap between Q's eigen-angles
    (read off S = (Q + Q^T)/2), H = -i (Q - z)^{-1} (Q + z) has Q's
    eigenvectors and the eigenvalues lambda = tan((theta - psi + pi) / 2),
    monotone in theta and bounded by the gap, so no two angles are merged
    that Q keeps apart.  The eigenvector w of e^{-i theta}, 0 < theta < pi,
    gives the frame x = sqrt(2) Re w, y = sqrt(2) Im w of the plane where
    Q x = cos(theta) x + sin(theta) y; Newton-Schulz steps make all these
    frames orthonormal together.  What the kept planes leave, P, is the
    kernel, or splits into the eigenspaces +1 and -1 of Q by the projectors
    P (Id +- S) P / 2.  Planes whose angle is at most min_angle join the
    kernel.
    """
    n = Q.shape[0]
    cosines = np.linalg.eigvalsh(0.5 * (Q + Q.T)).tolist()[::-1]
    phi = [math.acos(max(-1.0, min(1.0, c))) for c in cosines]  # ascending in [0, pi]
    edges = [-phi[0], *phi, 2.0 * math.pi - phi[-1]]
    k = max(range(n + 1), key=lambda j: edges[j + 1] - edges[j])
    psi = 0.5 * (edges[k] + edges[k + 1])
    eye = np.eye(n)
    zI = complex(math.cos(psi), math.sin(psi)) * eye
    lam, V = np.linalg.eigh(-1j * np.linalg.solve(Q - zI, Q + zI))
    theta = [math.remainder(psi + math.pi + 2.0 * math.atan(x), 2.0 * math.pi)
             for x in lam.tolist()]  # in [-pi, pi]
    half_turns = sum(abs(t) >= math.pi - REAL_ANGLE_TOL for t in theta)
    if half_turns % 2:
        raise ValueError("odd count of -1 eigenvalues: input is improper (det = -1)")
    low = max(REAL_ANGLE_TOL, min_angle)
    down = sorted((j for j, t in enumerate(theta) if REAL_ANGLE_TOL - math.pi < t < -low),
                  key=theta.__getitem__)  # e^{-i theta} of every plane, largest theta first

    Z = (math.sqrt(2.0) * np.take(V, down, axis=1)).view(float)  # x_1, y_1, x_2, y_2, ...
    E = Z.T @ Z - np.eye(Z.shape[1])
    Z = _newton_schulz(Z, E, float(abs(E).max(initial=0.0)))
    blocks, start = [], 0
    for j in range(1, len(down) + 1):  # clusters: planes within ANGLE_CLUSTER_TOL of the largest
        if j < len(down) and theta[down[j]] - theta[down[start]] <= ANGLE_CLUSTER_TOL:
            continue
        Zc = Z[:, 2 * start : 2 * j]
        D = Zc[:, 1::2] @ Zc[:, ::2].T
        angle = -sum(theta[i] for i in down[start:j]) / (j - start)
        blocks.append(_canonical_block(angle, Zc, D - D.T, j - start))
        start = j
    P = eye - Z @ Z.T  # the kernel, and the eigenspace -1 if there are half turns
    if half_turns:
        PSP = P @ (0.5 * (Q + Q.T)) @ P
        blocks.insert(0, _canonical_block(math.pi, 0.5 * (P - PSP), None, half_turns // 2))
        P = 0.5 * (P + PSP)
    K = np.empty((n, n - Z.shape[1] - half_turns))
    for r in range(K.shape[1]):
        if r:
            P = _deflate(P, K[:, r - 1])
        K[:, r] = _take_axis(P)
    return RotationBlocks(dim=n, blocks=tuple(blocks), kernel_basis=K)


def skew_spectral(B: np.ndarray) -> RotationBlocks:
    """Split a skew matrix into commuting rotation generators.

    The Cayley transform C = (Id - B/a)^{-1} (Id + B/a), a = |B|_2, is a
    rotation with B's planes and kernel and the angles
    phi = 2 arctan(theta / a) in (0, pi/2], so the so_log blocks of C give
    B's with theta = a tan(phi / 2), accurate relative to |B|.  Planes with
    theta <= SKEW_KERNEL_TOL * max(1, a) join the kernel.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError("skew_spectral needs a square matrix")
    if np.linalg.norm(B + B.T) > max(SKEW_KERNEL_TOL, 1e-12 * max(1.0, np.linalg.norm(B))):
        raise ValueError("input is not skew-symmetric within tolerance")
    B = 0.5 * (B - B.T)
    if n == 0:
        return RotationBlocks(dim=0)

    a = float(np.linalg.norm(B, 2)) or 1.0
    C = np.linalg.solve(np.eye(n) - B / a, np.eye(n) + B / a)
    rb = _log_blocks(C, min_angle=2.0 * np.arctan(SKEW_KERNEL_TOL * max(1.0, a) / a))
    return replace(rb, blocks=tuple(replace(b, theta=float(a * np.tan(0.5 * b.theta))) for b in rb.blocks))


def so_log(Q: np.ndarray):
    """Principal logarithm of a special-orthogonal matrix as rotation blocks.

    Returns (B, blocks) with Exp(B) = Q, angles folded into (0, pi]; the
    eigenspace of eigenvalue 1 becomes the kernel basis.  The blocks are
    those of Q's polar factor, which Newton-Schulz steps reach from a Q
    orthogonal within 1e-9.  Plane and kernel frames are canonical: built
    from each block's projector and generator, which do not depend on the
    eigenvectors the solver picked.  Rejects improper or non-orthogonal
    input.
    """
    rb = _so_log_within(np.asarray(Q, dtype=float), 1e-9)
    return rb.generator_sum(), rb


def _so_log_within(Q: np.ndarray, tol: float) -> RotationBlocks:
    """so_log's blocks of a Q with |Q^T Q - Id|_F <= tol, rebuilding Q within 10 tol."""
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("so_log needs a square matrix")
    E = Q.T @ Q - np.eye(n)
    d = float(np.linalg.norm(E))
    if d > tol:
        raise ValueError("input is not orthogonal within tolerance")

    rb = _log_blocks(_newton_schulz(Q, E, d))  # the polar factor: +-1 read 0 and pi
    if not np.linalg.norm(so_exp_blocks(rb) - Q) <= 10.0 * tol:
        raise ValueError("so_log reconstruction failed; input too far from SO(n)")
    return rb


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
