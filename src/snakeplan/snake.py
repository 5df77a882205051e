"""Configuration space of unit-speed snakes: endpoint map, Gram operator,
horizontal fields and the singularity test.

A configuration is a piecewise-continuous curve s -> u(s) on the unit
sphere over a partition of [0, L], sampled at composite Gauss-Legendre
nodes; every integral below is the corresponding quadrature.  The head of
the snake is E(u) = int_0^L u(s) ds.  Horizontal tangent fields are exactly
s -> w - <w, u(s)> u(s), sphere.tangent_at(u.nodes, w); pushing one through
the differential of E gives A_u w with A_u = L Id - Gamma_u, Gamma_u = int u u^T.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from .lorentz import _positive
from .sphere import sphere_point, tangent_at

__all__ = [
    "SnakeConfig",
    "FitResult",
    "GaussLegendreRule",
    "gauss_legendre",
    "endpoint",
    "snake_curve",
    "snake_curve_matrix",
    "is_singular",
    "differential_endpoint",
    "fit_horizontal",
    "critical_radii",
    "config_distance",
]

DEFAULT_NODES_PER_SEGMENT = 16
DEFAULT_MAX_NODE_ANGLE = np.pi / 8
SINGULARITY_TOL_FACTOR = 1e-8  # is_singular flags lambda_min(A_u) <= factor * L
# Rank cut of the fits, factor * L: rounding in forming and factoring A_u
# hides lambda_min(A_u) below about n eps L, and 64 eps L is twice that at n = 32
FIT_RANK_FACTOR = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GaussLegendreRule:
    """Standard m-point Gauss-Legendre rule on [-1, 1] with its spectral
    integration matrix (Greengard, SIAM J. Numer. Anal. 28, 1991)."""

    x: np.ndarray  # (m,) abscissae
    w: np.ndarray  # (m,) weights
    integral: np.ndarray  # (m+1, m): Legendre coefficients of int_{-1}^x l_j

    def cumulative(self, x) -> np.ndarray:
        """(len(x), m) matrix of int_{-1}^x l_j(t) dt for the Lagrange basis
        l_j on the abscissae; at x = self.x it is the m x m cumulative matrix."""
        return npleg.legvander(np.asarray(x, dtype=float), self.x.shape[0]) @ self.integral


@functools.lru_cache(maxsize=64)
def gauss_legendre(m: int) -> GaussLegendreRule:
    """The cached m-point rule; its arrays are shared, hence read-only."""
    x, w = npleg.leggauss(m)
    to_coeffs = np.linalg.solve(npleg.legvander(x, m - 1), np.eye(m))
    integral = npleg.legint(to_coeffs, lbnd=-1.0, axis=0)
    for arr in (x, w, integral):
        arr.setflags(write=False)
    return GaussLegendreRule(x=x, w=w, integral=integral)


def _partition(partition) -> np.ndarray:
    """partition as a float array, which must be a list of two or more points."""
    part = np.asarray(partition, dtype=float)
    if part.ndim != 1 or part.shape[0] < 2:
        raise ValueError(f"partition needs at least the two endpoints in a list, "
                         f"got shape {part.shape}")
    return part


def _gauss_grid(partition: np.ndarray, m: int):
    """Composite abscissae and weights, m per segment of the partition."""
    rule = gauss_legendre(m)
    a, b = partition[:-1, None], partition[1:, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid + half * rule.x).ravel(), (half * rule.w).ravel()


@dataclass(frozen=True)
class SnakeConfig:
    """Sampled configuration: unit direction vectors at the composite Gauss-Legendre
    nodes of the partition, K / N per segment.  The quadrature follows from these
    and is computed here, never passed in.  Immutable after construction."""

    L: float
    partition: np.ndarray  # (N+1,) strictly increasing, [0, L]
    nodes: np.ndarray  # (K, n) unit vectors at quadrature abscissae
    max_node_angle: float = DEFAULT_MAX_NODE_ANGLE
    nodes_per_segment: int = field(init=False)  # K / N
    weights: np.ndarray = field(init=False)  # (K,) quadrature weights, sum = L

    def __post_init__(self):
        _positive("L", self.L)
        if not 0.0 < self.max_node_angle <= np.pi:
            raise ValueError(f"resolution bound must be in (0, pi], got {self.max_node_angle}")
        part = _partition(self.partition)
        if not np.all(np.diff(part) > 0):
            raise ValueError("partition must be strictly increasing")
        if abs(part[0]) > 0 or abs(part[-1] - self.L) > 1e-12 * max(1.0, self.L):
            raise ValueError("partition must run exactly from 0 to L")
        nodes = np.asarray(self.nodes, dtype=float)
        if not np.isfinite(nodes).all():
            raise ValueError("nodes must be finite")
        nodes = sphere_point(nodes)
        nseg = part.shape[0] - 1
        m = nodes.shape[0] // nseg
        if m < 1 or nodes.shape[0] != nseg * m:
            raise ValueError(f"node count {len(nodes)} is not a positive multiple of {nseg}")
        # adjacent nodes within a segment must stay angularly close
        seg = nodes.reshape(nseg, m, nodes.shape[1])
        dots = np.clip(np.einsum("kij,kij->ki", seg[:, :-1], seg[:, 1:]), -1.0, 1.0)
        steps = np.arccos(dots).max(axis=1, initial=0.0)
        bad = np.flatnonzero(steps > self.max_node_angle)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"segment {k}: adjacent-node angle {steps[k]:.3f} exceeds "
                f"resolution bound {self.max_node_angle:.3f}"
            )
        weights = _gauss_grid(part, m)[1]
        for name, arr in (("partition", part), ("nodes", nodes), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "nodes_per_segment", m)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def segment_count(self) -> int:
        return self.partition.shape[0] - 1

    @classmethod
    def from_directions(
        cls,
        L: float,
        partition,
        direction_fn,
        dim: int | None = None,
        nodes_per_segment: int = DEFAULT_NODES_PER_SEGMENT,
        max_node_angle: float = DEFAULT_MAX_NODE_ANGLE,
    ) -> "SnakeConfig":
        """Sample a callable s -> direction (need not be normalized)."""
        partition = _partition(partition)
        times = _gauss_grid(partition, nodes_per_segment)[0]
        vals = np.array([np.asarray(direction_fn(t), dtype=float) for t in times])
        if dim is not None and vals.shape[1] != dim:
            raise ValueError("direction_fn dimension mismatch")
        return cls(L=float(L), partition=partition, nodes=vals, max_node_angle=max_node_angle)

    @classmethod
    def from_segment_samples(
        cls,
        L: float,
        partition,
        segments: list,
        max_node_angle: float = DEFAULT_MAX_NODE_ANGLE,
    ) -> "SnakeConfig":
        """Build from per-segment node arrays sampled at Gauss abscissae,
        each (nodes, n) with the same shape, one per segment of the partition."""
        partition = _partition(partition)
        segments = [np.asarray(s, dtype=float) for s in segments]
        if not segments:
            raise ValueError("a configuration needs at least one segment")
        for k, seg in enumerate(segments):
            if seg.ndim != 2:
                raise ValueError(f"segment {k}: nodes must be a list of direction vectors, "
                                 f"got shape {seg.shape}")
            if seg.shape[1] != segments[0].shape[1]:
                raise ValueError(f"segment {k}: nodes have dimension {seg.shape[1]}, "
                                 f"segment 0's have {segments[0].shape[1]}")
        if any(len(s) != len(segments[0]) for s in segments):
            raise ValueError("all segments must carry the same number of nodes")
        if len(segments) != len(partition) - 1:
            raise ValueError(f"segments: {len(segments)} given, partition has {len(partition) - 1}")
        return cls(L=float(L), partition=partition, nodes=np.concatenate(segments),
                   max_node_angle=max_node_angle)

    def segment_nodes(self, k: int) -> np.ndarray:
        m = self.nodes_per_segment
        return self.nodes[k * m : (k + 1) * m]


def endpoint(u: SnakeConfig) -> np.ndarray:
    """Head position E(u) = int_0^L u(s) ds by quadrature."""
    return u.weights @ u.nodes


def snake_curve_matrix(u: SnakeConfig, s) -> np.ndarray:
    """(S, K) matrix P with P @ nodes = S(s_i) = int_0^{s_i} u for every sample.

    A row holds the full quadrature weights of the segments before s_i and,
    inside the segment [a, b] containing s_i, the integrals over [a, s_i] of
    the Legendre interpolant's basis on its Gauss nodes.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    bad = (s < -1e-12) | (s > u.L + 1e-12 * max(1.0, u.L))
    if bad.any():
        raise ValueError(f"t = {s[bad][0]} outside [0, {u.L}]")
    s = np.clip(s, 0.0, u.L)[:, None]
    m = u.nodes_per_segment
    a, b = u.partition[:-1], u.partition[1:]
    P = np.where((b <= s)[:, :, None], u.weights.reshape(-1, m), 0.0)
    rows, k = np.nonzero((a < s) & (s < b))
    x = 2.0 * (s[rows, 0] - a[k]) / (b[k] - a[k]) - 1.0
    P[rows, k] = 0.5 * (b[k] - a[k])[:, None] * gauss_legendre(m).cumulative(x)
    return P.reshape(s.shape[0], -1)


def snake_curve(u: SnakeConfig, t: float) -> np.ndarray:
    """Partial integral S(t) = int_0^t u(s) ds; S(0) = 0, S(L) = endpoint.

    Inside a segment the sampled directions are integrated through their
    Legendre interpolant on the Gauss nodes.
    """
    return snake_curve_matrix(u, t)[0] @ u.nodes


def _gram(weights: np.ndarray, L, nodes: np.ndarray):
    """Gamma_u and A_u for one node set or a stack (..., K, n) on one quadrature.

    The two triangles of the product differ by rounding only; eigh reads
    the lower one, so no symmetrizing pass is made.  horizontal_lift forms
    them in its own buffers with the same arithmetic.
    """
    G = np.multiply(nodes, weights[:, None]).swapaxes(-1, -2) @ nodes
    return G, L * np.eye(nodes.shape[-1]) - G


def is_singular(u: SnakeConfig):
    """(flag, margin): singular iff margin = lambda_min(A_u) <= SINGULARITY_TOL_FACTOR * L."""
    margin = float(np.linalg.eigh(_gram(u.weights, u.L, u.nodes)[1])[0][0])
    return margin <= SINGULARITY_TOL_FACTOR * u.L, margin


def differential_endpoint(u: SnakeConfig, v: np.ndarray) -> np.ndarray:
    """T_u E (v) = int_0^L v(s) ds for a per-node tangent field v."""
    v = np.asarray(v, dtype=float)
    return u.weights @ v


@dataclass(frozen=True)
class FitResult:
    """Fitted direction, L^2 residual and restricted flag per node set."""

    w: np.ndarray
    residual: np.ndarray
    restricted: np.ndarray  # True where A_u was singular and the fit used range(A_u)


def fit_horizontal(grid: SnakeConfig, nodes: np.ndarray, v: np.ndarray) -> FitResult:
    """Least-squares horizontal direction w, minimizing the L^2 norm of the
    residual v - tangent_at(u, w) by A_u w = int v ds, for unit node sets u
    (K, n) or (..., K, n) and fields v of the same shape, all on grid's quadrature.

    v must be tangent at u: only then is int v ds the normal equation's
    right-hand side.  One batched eigen-solve inverts every A_u, masking
    eigenvalues at or below c = 64 eps L (FIT_RANK_FACTOR * L, not
    is_singular's 1e-8 L); such fits are restricted to range(A_u).  A cut t
    above c would drop a horizontal component of L^2 norm up to sqrt(t) |w|
    wherever a strong boost bunches the nodes.
    """
    nodes = np.asarray(nodes, dtype=float)
    v = np.asarray(v, dtype=float)
    _, A = _gram(grid.weights, grid.L, nodes)
    vals, vecs = np.linalg.eigh(A)
    keep = vals > FIT_RANK_FACTOR * grid.L
    coeffs = np.einsum("...ji,...j->...i", vecs, v.swapaxes(-1, -2) @ grid.weights)
    scaled = np.where(keep, coeffs / np.where(keep, vals, 1.0), 0.0)
    w = np.einsum("...ij,...j->...i", vecs, scaled)
    r = v - tangent_at(nodes, w[..., None, :])
    return FitResult(w=w, residual=np.sqrt(np.einsum("k,...ki,...ki->...", grid.weights, r, r)),
                     restricted=~keep.all(axis=-1))


def critical_radii(partition) -> np.ndarray:
    """All |sum_i eps_i (s_{i+1} - s_i)|, eps_i = +-1: radii of the spheres of
    heads of straight (segment-wise collinear) configurations; radii within
    1e-12 of the last one kept are merged."""
    partition = np.asarray(partition, dtype=float)
    lengths = np.diff(partition)
    N = lengths.shape[0]
    if N > 20:
        raise ValueError("partition too fine for exhaustive sign enumeration (N > 20)")
    radii = set()
    for signs in itertools.product((1.0, -1.0), repeat=N - 1):
        # first sign fixed to +1: |.| makes the full set symmetric
        val = abs(lengths[0] + np.dot(signs, lengths[1:])) if N > 1 else lengths[0]
        radii.add(float(val))
    out = sorted(radii)
    kept = [out[0]]
    for r in out[1:]:
        if r - kept[-1] > 1e-12:
            kept.append(r)
    return np.array(kept)


def config_distance(u1: SnakeConfig, u2: SnakeConfig) -> float:
    """Sup over nodes of the angular distance between direction vectors.

    Uses the chord form 2 arcsin(|u - v| / 2), which is exact at zero where
    arccos of a dot product loses half the significant digits.
    """
    if u1.nodes.shape != u2.nodes.shape:
        raise ValueError("configurations are not comparable")
    chord = np.linalg.norm(u1.nodes - u2.nodes, axis=1)
    return float(np.max(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))))
