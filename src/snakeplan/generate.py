"""Seeded generators for test payloads: group elements, configurations,
head curves.  Deterministic given (seed, dim)."""

from __future__ import annotations

import numpy as np

from .lorentz import exp_h, spatial_block
from .snake import DEFAULT_NODES_PER_SEGMENT, SnakeConfig, endpoint

__all__ = [
    "random_rotation",
    "random_so0",
    "random_skew",
    "random_config",
    "straight_config",
    "circle_head_curve",
]


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish rotation from the QR of a Gaussian matrix, det forced to +1."""
    M = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    return Q


def random_skew(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    M = rng.normal(size=(n, n))
    B = 0.5 * (M - M.T)
    nb = np.linalg.norm(B)
    if nb > scale:
        B *= scale / nb
    return B


def random_so0(rng: np.random.Generator, n: int, rapidity_max: float = 2.0) -> np.ndarray:
    """diag(1, Q) @ exp_h(u): the polar form covers all of SO0(n,1);
    |u| <= rapidity_max keeps conditioning sane."""
    u = rng.normal(size=n)
    u *= rng.uniform(0.0, rapidity_max) / np.linalg.norm(u)
    A = exp_h(u)
    return spatial_block(random_rotation(rng, n)) @ A


def random_config(
    rng: np.random.Generator,
    n: int,
    L: float = 3.0,
    segments: int = 3,
    nodes_per_segment: int = DEFAULT_NODES_PER_SEGMENT,
    spin: float = 0.8,
) -> SnakeConfig:
    """Per-segment great-circle-ish sweeps: u_k(s) = Exp((s - s_k) W_k) u_k(s_k)
    with a random modest angular velocity W_k; direction jumps are allowed at
    partition points only."""
    cuts = np.sort(rng.uniform(0.15, 0.85, size=segments - 1)) * L if segments > 1 else np.array([])
    partition = np.concatenate([[0.0], cuts, [L]])
    starts = rng.normal(size=(segments, n))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    omegas = []
    for _ in range(segments):
        W = rng.normal(size=(n, n))
        W = 0.5 * (W - W.T)
        W *= spin / max(np.linalg.norm(W), 1e-12)
        omegas.append(W)

    def direction(s: float) -> np.ndarray:
        k = min(np.searchsorted(partition, s, side="right") - 1, segments - 1)
        k = max(k, 0)
        ds = s - partition[k]
        # series exponential action; W is small so a few terms suffice
        v = starts[k]
        term = v.copy()
        out = v.copy()
        for p in range(1, 12):
            term = (ds / p) * (omegas[k] @ term)
            out = out + term
        return out

    return SnakeConfig.from_directions(
        L, partition, direction, dim=n, nodes_per_segment=nodes_per_segment
    )


def straight_config(
    n: int,
    L: float = 3.0,
    segments: int = 2,
    nodes_per_segment: int = DEFAULT_NODES_PER_SEGMENT,
    flips: tuple = (),
) -> SnakeConfig:
    """Collinear configuration along e1 with optional sign flips at partition
    points; always singular."""
    partition = np.linspace(0.0, L, segments + 1)
    e1 = np.zeros(n)
    e1[0] = 1.0
    segs = []
    for k in range(segments):
        sign = -1.0 if k in flips else 1.0
        segs.append(np.tile(sign * e1, (nodes_per_segment, 1)))
    return SnakeConfig.from_segment_samples(L, partition, segs)


def circle_head_curve(u0: SnakeConfig, radius: float, n_samples: int = 129):
    """Closed planar loop through endpoint(u0) in the (e1, e2) plane.

    Returns (times, points) sampled on [0, 1]; the loop is
    c(t) = c0 + r [(cos 2 pi t - 1), sin 2 pi t, 0, ...].
    """
    c0 = endpoint(u0)
    ts = np.linspace(0.0, 1.0, n_samples)
    pts = np.tile(c0, (n_samples, 1))
    pts[:, 0] += radius * (np.cos(2.0 * np.pi * ts) - 1.0)
    pts[:, 1] += radius * np.sin(2.0 * np.pi * ts)
    return ts, pts
