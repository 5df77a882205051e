"""Configuration space of unit-speed snakes: endpoint map, Gram operator,
horizontal fields and the singularity test.

A configuration is a piecewise-continuous curve s -> u(s) on the unit
sphere over a partition of [0, L], sampled at composite Gauss-Legendre
nodes; every integral below is the corresponding quadrature.  The head of
the snake is E(u) = int_0^L u(s) ds.  Horizontal tangent fields are exactly
s -> w - <w, u(s)> u(s); pushing one through the differential of E gives
A_u w with A_u = L Id - Gamma_u, Gamma_u = int u u^T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = [
    "SnakeConfig",
    "GramData",
    "FitResult",
    "endpoint",
    "snake_curve",
    "gram_data",
    "is_singular",
    "horizontal_gradient",
    "e_field",
    "differential_endpoint",
    "fit_horizontal",
    "critical_radii",
    "config_distance",
    "project_tangent",
]

DEFAULT_NODES_PER_SEGMENT = 16
DEFAULT_MAX_NODE_ANGLE = np.pi / 8
SINGULARITY_TOL_FACTOR = 1e-8  # scale-aware default: tol = factor * L


def _gauss_nodes(a: float, b: float, m: int):
    x, w = npleg.leggauss(m)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@dataclass(frozen=True)
class SnakeConfig:
    """Sampled configuration: quadrature grid over the partition plus unit
    direction vectors at every node.  Immutable after construction."""

    L: float
    partition: np.ndarray  # (N+1,) strictly increasing, [0, L]
    nodes: np.ndarray  # (K, n) unit vectors at quadrature abscissae
    times: np.ndarray  # (K,) quadrature abscissae
    weights: np.ndarray  # (K,) quadrature weights, sum = L
    nodes_per_segment: int
    max_node_angle: float = DEFAULT_MAX_NODE_ANGLE

    def __post_init__(self):
        part = np.asarray(self.partition, dtype=float)
        if part.ndim != 1 or part.shape[0] < 2:
            raise ValueError("partition needs at least the two endpoints")
        if not np.all(np.diff(part) > 0):
            raise ValueError("partition must be strictly increasing")
        if abs(part[0]) > 0 or abs(part[-1] - self.L) > 1e-12 * max(1.0, self.L):
            raise ValueError("partition must run exactly from 0 to L")
        nodes = np.asarray(self.nodes, dtype=float)
        norms = np.linalg.norm(nodes, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("zero direction vector in configuration")
        nodes = nodes / norms[:, None]
        m = self.nodes_per_segment
        nseg = part.shape[0] - 1
        if nodes.shape[0] != nseg * m:
            raise ValueError("node count does not match partition * nodes_per_segment")
        # adjacent nodes within a segment must stay angularly close
        for k in range(nseg):
            seg = nodes[k * m : (k + 1) * m]
            dots = np.clip(np.einsum("ij,ij->i", seg[:-1], seg[1:]), -1.0, 1.0)
            step = np.max(np.arccos(dots)) if m > 1 else 0.0
            if step > self.max_node_angle:
                raise ValueError(
                    f"segment {k}: adjacent-node angle {step:.3f} exceeds "
                    f"resolution bound {self.max_node_angle:.3f}"
                )
        for name, arr in (("partition", part), ("nodes", nodes),
                          ("times", np.asarray(self.times, dtype=float)),
                          ("weights", np.asarray(self.weights, dtype=float))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        partition = np.asarray(partition, dtype=float)
        ts, ws = [], []
        for a, b in zip(partition[:-1], partition[1:]):
            t, w = _gauss_nodes(a, b, nodes_per_segment)
            ts.append(t)
            ws.append(w)
        times = np.concatenate(ts)
        weights = np.concatenate(ws)
        vals = np.array([np.asarray(direction_fn(t), dtype=float) for t in times])
        if dim is not None and vals.shape[1] != dim:
            raise ValueError("direction_fn dimension mismatch")
        return cls(
            L=float(L), partition=partition, nodes=vals, times=times,
            weights=weights, nodes_per_segment=nodes_per_segment,
            max_node_angle=max_node_angle,
        )

    @classmethod
    def from_segment_samples(
        cls,
        L: float,
        partition,
        segments: list,
        max_node_angle: float = DEFAULT_MAX_NODE_ANGLE,
    ) -> "SnakeConfig":
        """Build from per-segment node arrays sampled at Gauss abscissae."""
        partition = np.asarray(partition, dtype=float)
        m = len(segments[0])
        if any(len(s) != m for s in segments):
            raise ValueError("all segments must carry the same number of nodes")
        ts, ws = [], []
        for a, b in zip(partition[:-1], partition[1:]):
            t, w = _gauss_nodes(a, b, m)
            ts.append(t)
            ws.append(w)
        return cls(
            L=float(L), partition=partition,
            nodes=np.concatenate([np.asarray(s, dtype=float) for s in segments]),
            times=np.concatenate(ts), weights=np.concatenate(ws),
            nodes_per_segment=m, max_node_angle=max_node_angle,
        )

    def segment_nodes(self, k: int) -> np.ndarray:
        m = self.nodes_per_segment
        return self.nodes[k * m : (k + 1) * m]


def endpoint(u: SnakeConfig) -> np.ndarray:
    """Head position E(u) = int_0^L u(s) ds by quadrature."""
    return u.weights @ u.nodes


def snake_curve(u: SnakeConfig, t: float) -> np.ndarray:
    """Partial integral S(t) = int_0^t u(s) ds; S(0) = 0, S(L) = endpoint.

    Inside a segment the sampled directions are integrated through their
    Legendre interpolant on the Gauss nodes.
    """
    if t < -1e-12 or t > u.L + 1e-12 * max(1.0, u.L):
        raise ValueError(f"t = {t} outside [0, {u.L}]")
    t = min(max(t, 0.0), u.L)
    part = u.partition
    m = u.nodes_per_segment
    out = np.zeros(u.dim)
    for k in range(u.segment_count):
        a, b = part[k], part[k + 1]
        wk = u.weights[k * m : (k + 1) * m]
        seg = u.segment_nodes(k)
        if t >= b:
            out += wk @ seg
            continue
        if t <= a:
            break
        # partial segment: integrate the Legendre interpolant over [a, t]
        x_std, _ = npleg.leggauss(m)
        V = npleg.legvander(x_std, m - 1)
        coeffs = np.linalg.solve(V, seg)  # (m, dim)
        ic = npleg.legint(coeffs, axis=0)
        x_t = 2.0 * (t - a) / (b - a) - 1.0
        vals = npleg.legval(x_t, ic) - npleg.legval(-1.0, ic)
        out += 0.5 * (b - a) * vals
        break
    return out


@dataclass(frozen=True)
class GramData:
    gram: np.ndarray  # Gamma_u = int u u^T, symmetric PSD, trace = L
    a_op: np.ndarray  # A_u = L Id - Gamma_u
    eigenvalues: np.ndarray  # of A_u, ascending
    eigenvectors: np.ndarray  # columns, matching eigenvalues


def gram_data(u: SnakeConfig) -> GramData:
    G = (u.nodes * u.weights[:, None]).T @ u.nodes
    G = 0.5 * (G + G.T)
    A = u.L * np.eye(u.dim) - G
    vals, vecs = np.linalg.eigh(A)
    return GramData(gram=G, a_op=A, eigenvalues=vals, eigenvectors=vecs)


def is_singular(u: SnakeConfig, tol: float | None = None):
    """(flag, margin): singular iff lambda_min(A_u) <= tol; margin = lambda_min."""
    if tol is None:
        tol = SINGULARITY_TOL_FACTOR * u.L
    margin = float(gram_data(u).eigenvalues[0])
    return margin <= tol, margin


def horizontal_gradient(w: np.ndarray, u: SnakeConfig) -> np.ndarray:
    """Per-node field s -> w - <w, u(s)> u(s); spans the horizontal space."""
    w = np.asarray(w, dtype=float)
    return w[None, :] - (u.nodes @ w)[:, None] * u.nodes


def e_field(i: int, u: SnakeConfig) -> np.ndarray:
    """E_i = horizontal gradient of the i-th head coordinate (1-indexed)."""
    w = np.zeros(u.dim)
    w[i - 1] = 1.0
    return horizontal_gradient(w, u)


def differential_endpoint(u: SnakeConfig, v: np.ndarray) -> np.ndarray:
    """T_u E (v) = int_0^L v(s) ds for a per-node tangent field v."""
    v = np.asarray(v, dtype=float)
    return u.weights @ v


def project_tangent(u: SnakeConfig, v: np.ndarray) -> np.ndarray:
    """Remove the radial component of v at every node."""
    v = np.asarray(v, dtype=float)
    return v - np.einsum("ij,ij->i", v, u.nodes)[:, None] * u.nodes


def l2_norm(u: SnakeConfig, v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.einsum("i,ij,ij->", u.weights, v, v)))


@dataclass(frozen=True)
class FitResult:
    w: np.ndarray
    residual: float
    restricted: bool  # True when A_u was singular and the fit used range(A_u)


def fit_horizontal(u: SnakeConfig, v: np.ndarray, rank_tol: float | None = None) -> FitResult:
    """Least-squares horizontal direction: minimize ||v - (w - <w,u>u)||_{L^2}.

    Normal equations reduce to A_u w = int v ds.  A singular A_u is reported
    and the solve restricted to its range.
    """
    if rank_tol is None:
        rank_tol = SINGULARITY_TOL_FACTOR * u.L
    gd = gram_data(u)
    rhs = differential_endpoint(u, v)
    keep = gd.eigenvalues > rank_tol
    coeffs = gd.eigenvectors.T @ rhs
    w = gd.eigenvectors[:, keep] @ (coeffs[keep] / gd.eigenvalues[keep])
    resid_field = np.asarray(v, dtype=float) - horizontal_gradient(w, u)
    return FitResult(w=w, residual=l2_norm(u, resid_field), restricted=bool(not keep.all()))


def critical_radii(partition, dedup_tol: float = 1e-12) -> np.ndarray:
    """All |sum_i eps_i (s_{i+1} - s_i)|, eps_i = +-1: radii of the spheres of
    heads of straight (segment-wise collinear) configurations."""
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
    out = np.array(sorted(radii))
    if dedup_tol > 0 and out.size:
        kept = [out[0]]
        for r in out[1:]:
            if r - kept[-1] > dedup_tol:
                kept.append(r)
        out = np.array(kept)
    return out


def config_distance(u1: SnakeConfig, u2: SnakeConfig) -> float:
    """Sup over nodes of the angular distance between direction vectors.

    Uses the chord form 2 arcsin(|u - v| / 2), which is exact at zero where
    arccos of a dot product loses half the significant digits.
    """
    if u1.nodes.shape != u2.nodes.shape:
        raise ValueError("configurations are not comparable")
    chord = np.linalg.norm(u1.nodes - u2.nodes, axis=1)
    return float(np.max(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))))
