"""Commuting-block spectral form of skew matrices and SO(n) logarithms.

A real skew matrix decomposes as B = sum_j theta_j B_j with theta_j the
distinct positive singular values (each of even multiplicity), the B_j
supported on mutually orthogonal even-dimensional planes-sums E_j, and
B_j^3 = -B_j.  A special-orthogonal Q is a commuting product of planar
rotations Q = prod_j Exp(theta_j B_j) on the same kind of block data, with
angles folded into (0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _normalize_plane(x: np.ndarray, y: np.ndarray):
    """Deterministic sign: first component of x above tolerance is positive."""
    for xi in x:
        if abs(xi) > 1e-9:
            if xi < 0:
                return -x, -y
            break
    return x, y


def _plane_sort_key(plane):
    x, y = plane
    return (int(np.argmax(np.abs(x))), int(np.argmax(np.abs(y))))


def _build_block(theta: float, frames: list, n: int) -> RotationBlock:
    frames = [_normalize_plane(x, y) for x, y in frames]
    frames.sort(key=_plane_sort_key)
    gen = np.zeros((n, n))
    for x, y in frames:
        gen += np.outer(y, x) - np.outer(x, y)
    return RotationBlock(theta=float(theta), planes=tuple((x.copy(), y.copy()) for x, y in frames), generator=gen)


def skew_spectral(B: np.ndarray, tol: float = 1e-10) -> RotationBlocks:
    """Split a skew matrix into commuting rotation generators.

    Pairs left/right singular vectors (B x = theta y, B y = -theta x) with
    greedy deflation inside each singular-value cluster, staying in real
    arithmetic.  Kernel vectors are the singular directions below tol.
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

    _, svals, Vt = np.linalg.svd(B)
    scale = max(1.0, svals[0] if len(svals) else 1.0)
    kernel_mask = svals <= tol * scale
    # cluster the positive singular values
    groups: list = []  # (theta, [row indices into Vt])
    for idx, s in enumerate(svals):
        if kernel_mask[idx]:
            continue
        if groups and abs(groups[-1][0] - s) <= ANGLE_CLUSTER_TOL * scale:
            groups[-1][1].append(idx)
        else:
            groups.append([s, [idx]])

    blocks = []
    for s_group, idxs in groups:
        theta = float(np.mean(svals[idxs]))
        basis = Vt[idxs].T  # orthonormal columns spanning E_j
        frames = []
        work = basis
        while work.shape[1] > 0:
            x = work[:, 0]
            x = x / np.linalg.norm(x)
            y = B @ x / theta
            # project y back into the remaining subspace for hygiene
            y = work @ (work.T @ y)
            y /= np.linalg.norm(y)
            frames.append((x, y))
            # deflate span(x, y); SVD keeps an orthonormal basis of what is left
            proj = work - np.outer(x, x @ work) - np.outer(y, y @ work)
            uu, ss, _ = np.linalg.svd(proj, full_matrices=False)
            work = uu[:, ss > 1e-8]
        blocks.append(_build_block(theta, frames, n))

    kernel = Vt[kernel_mask].T if kernel_mask.any() else np.zeros((n, 0))
    blocks.sort(key=lambda b: -b.theta)
    return RotationBlocks(dim=n, blocks=tuple(blocks), kernel_basis=kernel)


def so_log(Q: np.ndarray, tol: float = 1e-9):
    """Principal logarithm of a special-orthogonal matrix as rotation blocks.

    Returns (B, blocks) with Exp(B) = Q, angles folded into (0, pi]; the
    eigenspace of eigenvalue 1 becomes the kernel basis.  Rejects improper
    or non-orthogonal input.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("so_log needs a square matrix")
    if np.linalg.norm(Q.T @ Q - np.eye(n)) > max(tol, 1e-10):
        raise ValueError("input is not orthogonal within tolerance")
    if np.linalg.det(Q) < 0.0:
        raise ValueError("input is improper (det = -1); no real log in so(n)")

    T, Z = scipy.linalg.schur(Q, output="real")
    frames = []  # (theta, x, y)
    minus_ones = []
    kernel_cols = []
    k = 0
    while k < n:
        if k + 1 < n and abs(T[k + 1, k]) > 1e-12:
            c = 0.5 * (T[k, k] + T[k + 1, k + 1])
            s = 0.5 * (T[k + 1, k] - T[k, k + 1])
            theta = float(np.arctan2(abs(s), c))
            x, y = Z[:, k], Z[:, k + 1]
            if s < 0:
                x, y = y, x  # flip orientation so the rotation angle is +theta
            frames.append((theta, x, y))
            k += 2
        else:
            lam = T[k, k]
            if lam > 0:
                kernel_cols.append(Z[:, k])
            else:
                minus_ones.append(Z[:, k])
            k += 1
    # -1 eigenvalues pair into theta = pi planes (even count since det = +1)
    if len(minus_ones) % 2 != 0:
        raise ValueError("odd count of -1 eigenvalues; input not special orthogonal")
    for r in range(0, len(minus_ones), 2):
        frames.append((float(np.pi), minus_ones[r], minus_ones[r + 1]))

    # cluster by angle
    frames.sort(key=lambda f: -f[0])
    blocks = []
    i = 0
    while i < len(frames):
        theta = frames[i][0]
        group = [(frames[i][1], frames[i][2])]
        j = i + 1
        while j < len(frames) and abs(frames[j][0] - theta) <= ANGLE_CLUSTER_TOL:
            group.append((frames[j][1], frames[j][2]))
            j += 1
        theta = float(np.mean([frames[t][0] for t in range(i, j)]))
        blocks.append(_build_block(theta, group, n))
        i = j

    kernel = np.array(kernel_cols).T if kernel_cols else np.zeros((n, 0))
    rb = RotationBlocks(dim=n, blocks=tuple(blocks), kernel_basis=kernel)
    B = rb.generator_sum()
    if np.linalg.norm(so_exp_blocks(rb) - Q) > max(tol, 1e-9) * 10:
        raise ValueError("so_log reconstruction failed; input too far from SO(n)")
    return B, rb


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
