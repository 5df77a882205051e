"""Horizontal path synthesis in SO0(n,1) and on snake configurations.

Group paths are sampled curves gamma with gamma(0) = Id whose step controls
are the right logarithmic derivatives Y = gamma' gamma^{-1}; a path is
horizontal when every Y lies in the boost subspace h.  New legs extend a
path by left multiplication (gamma -> leg * gamma), which preserves this
notion of horizontality and matches the way the factorization
A = prod_j Exp(theta_j B_j) * exp_h(u) is rebuilt leg by leg.

Rotation endpoints are not reachable along h directly; each planar rotation
leg is a normal geodesic

    gamma(tau) = Exp(-tau * Omega) @ Exp(tau * (U + Omega)),

whose control Ad_{Exp(-tau Omega)} U stays in h with unit norm.  The leg
reaches Exp(theta * g) exactly once the elliptic frequency closes
(sqrt(eta^2 - 1) * T = 2 pi), at arc length T = sqrt(theta^2 + 4 pi theta).
The configuration-space planners push these paths through the sphere
action node-wise; their velocities are then genuine horizontal fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lorentz import (
    LieElement,
    Membership,
    classify,
    exp_h,
    factorize,
    spatial_block,
)
from .rotations import planar_rotation
from .snake import (
    SnakeConfig,
    endpoint,
    fit_horizontal,
    horizontal_gradient,
    is_singular,
    project_tangent,
)
from .sphere import mobius_sphere_action_many

__all__ = [
    "GroupPath",
    "ConfigPath",
    "LegRecord",
    "act",
    "infinitesimal_action",
    "boost_leg",
    "su11_geodesic",
    "rotation_leg",
    "plan_group_path",
    "commutator_probe",
    "steer_config",
    "horizontal_lift",
    "SingularityApproach",
]

DEFAULT_MAX_STEP = 0.02


class SingularityApproach(RuntimeError):
    """Horizontal lift got too close to the singular set."""

    def __init__(self, time: float, margin: float):
        super().__init__(f"lambda_min(A_u) = {margin:.3e} at t = {time:.6f}")
        self.time = time
        self.margin = margin


@dataclass(frozen=True)
class LegRecord:
    kind: str  # "boost" | "rotation"
    length: float
    start: int  # first step index of the leg
    end: int  # one past the last step index
    theta: float = 0.0
    u: np.ndarray | None = None


@dataclass
class GroupPath:
    """Time-gridded horizontal path in SO0(n,1) with control records.

    controls[k] is the boost vector of the right logarithmic derivative at
    the midpoint of step k; matrices[k+1] ~ exp_h(dt * controls[k]) @ matrices[k].
    """

    times: np.ndarray  # (m+1,)
    matrices: np.ndarray  # (m+1, n+1, n+1)
    controls: np.ndarray  # (m, n)
    legs: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1] - 1

    def endpoint(self) -> np.ndarray:
        return self.matrices[-1]

    def length(self) -> float:
        # row-wise dot products round like np.linalg.norm of one vector, and
        # the left-to-right sum keeps the exported length deterministic
        c = self.controls
        speeds = np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0])
        return float(sum(speeds * np.diff(self.times)))

    def leg_lengths(self) -> dict:
        out = {"boost": 0.0, "rotation": 0.0}
        for leg in self.legs:
            out[leg.kind] += leg.length
        return out

    def horizontality_residual(self) -> float:
        """Largest s-part norm of the controls; boost-vector controls carry none."""
        return 0.0

    def consistency_residual(self) -> float:
        """max_k || gamma_{k+1} - Exp(dt Y_k) gamma_k ||, O(dt^3) per step."""
        import scipy.linalg

        worst = 0.0
        for k, Y in enumerate(_boost_generator(self.controls)):
            dt = self.times[k + 1] - self.times[k]
            step = scipy.linalg.expm(dt * Y) @ self.matrices[k]
            worst = max(worst, float(np.linalg.norm(step - self.matrices[k + 1])))
        return worst


def _boost_generator(u: np.ndarray) -> np.ndarray:
    """Symmetric off-diagonal embedding of boost vectors u (..., n) into so(n,1)."""
    n = u.shape[-1]
    M = np.zeros(u.shape[:-1] + (n + 1, n + 1))
    M[..., 0, 1:] = u
    M[..., 1:, 0] = u
    return M


def _chain(n: int, legs) -> GroupPath:
    """Extend Id by every leg in turn, gamma(s) = leg(s - t_end) @ gamma(t_end),
    and concatenate the pieces once."""
    times, mats, controls, records = [np.zeros(1)], [np.eye(n + 1)[None]], [np.zeros((0, n))], []
    start = 0
    for leg in legs:
        times.append(times[-1][-1] + leg.times[1:])
        mats.append(leg.matrices[1:] @ mats[-1][-1])
        controls.append(leg.controls)
        end = start + len(leg.controls)
        records.append(replace(leg.legs[0], start=start, end=end))
        start = end
    return GroupPath(times=np.concatenate(times), matrices=np.concatenate(mats),
                     controls=np.concatenate(controls), legs=records)


def _steps_for(length: float, max_step: float) -> int:
    return max(2, int(np.ceil(length / max_step)))


def boost_leg(u_vec: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> GroupPath:
    """Arc-length boost ray tau -> exp_h(tau * u/|u|) on [0, |u|]."""
    u_vec = np.atleast_1d(np.asarray(u_vec, dtype=float))
    n = u_vec.shape[0]
    T = float(np.linalg.norm(u_vec))
    if T == 0.0:
        raise ValueError("boost_leg needs a nonzero vector")
    uh = u_vec / T
    m = _steps_for(T, max_step)
    times = np.linspace(0.0, T, m + 1)
    mats = np.array([exp_h(t * uh) for t in times])
    return GroupPath(times=times, matrices=mats, controls=np.tile(uh, (m, 1)),
                     legs=[LegRecord(kind="boost", length=T, start=0, end=m, u=u_vec.copy())])


def _plane_generator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spatial generator g with g x = y, g y = -x, zero off span(x, y)."""
    return np.outer(y, x) - np.outer(x, y)


def _vertical_parameter(theta: float) -> tuple:
    """Vertical parameter eta, elliptic frequency and arc length T of the
    geodesic leg to the angle theta.

    Closing the frequency, sqrt(eta^2 - 1) * T = 2 pi, at the target angle
    (|eta| T = theta + 2 pi) gives T = sqrt(theta^2 + 4 pi theta) and
    |eta| = sqrt(1 + (2 pi / T)^2).  The frequency is returned as 2 pi / T
    rather than recomputed from eta^2 - 1, which cancels.
    """
    T = np.sqrt(theta * theta + 4.0 * np.pi * theta)
    freq = 2.0 * np.pi / T
    return -np.sqrt(1.0 + freq * freq), freq, T


def _plane_geodesic_leg(
    x: np.ndarray,
    y: np.ndarray,
    theta: float,
    n: int,
    max_step: float = DEFAULT_MAX_STEP,
) -> GroupPath:
    """Right-horizontal normal geodesic from Id to Exp(theta * g_{xy}).

    gamma(tau) = Exp(-tau * eta * Omega_g) @ Exp(tau * (U_x + eta * Omega_g)),
    control Ad U_x of constant unit norm; endpoint closes at
    T = sqrt(theta^2 + 4 pi theta).
    """
    if not 0.0 < theta <= np.pi + 1e-12:
        raise ValueError("plane geodesic needs an angle in (0, pi]")
    eta, freq, T = _vertical_parameter(theta)
    g = _plane_generator(x, y)
    M = np.zeros((n + 1, n + 1))
    M[0, 1:] = x
    M[1:, 0] = x
    M[1:, 1:] = eta * g
    M2 = M @ M

    m = _steps_for(T, max_step)
    times = np.linspace(0.0, T, m + 1)
    a = (freq * times)[:, None, None]
    exp_tm = np.eye(n + 1) + (np.sin(a) / freq) * M + ((1.0 - np.cos(a)) / freq**2) * M2
    mats = spatial_block(planar_rotation(g, -times * eta)) @ exp_tm
    taus = 0.5 * (times[:-1] + times[1:])
    controls = np.cos(taus * eta)[:, None] * x - np.sin(taus * eta)[:, None] * y
    return GroupPath(times=times, matrices=mats, controls=controls,
                     legs=[LegRecord(kind="rotation", length=T, start=0, end=m, theta=theta)])


def su11_geodesic(theta: float, max_step: float = DEFAULT_MAX_STEP) -> GroupPath:
    """Horizontal geodesic leg in SO(2,1) from Id to the rotation by theta.

    The endpoint is exact; the realized arc length is
    sqrt(theta^2 + 4 pi |theta|), the minimum over the normal-geodesic
    family (a rotation is a vertical displacement, so no horizontal path
    of length |theta| exists).
    """
    if not 0.0 < abs(theta) <= np.pi + 1e-12:
        raise ValueError("su11_geodesic needs 0 < |theta| <= pi")
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    if theta > 0:
        return _plane_geodesic_leg(e1, e2, theta, 2, max_step=max_step)
    return _plane_geodesic_leg(e2, e1, -theta, 2, max_step=max_step)


def rotation_leg(
    i: int, j: int, theta: float, n: int, max_step: float = DEFAULT_MAX_STEP
) -> GroupPath:
    """Geodesic leg to Exp(theta * Omega_ij) in SO0(n,1), angle folded into (0, pi]."""
    if i == j:
        raise ValueError("rotation_leg needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"plane indices ({i},{j}) out of range 1..{n}")
    # Exp(theta Omega_ij) has generator e_i e_j^T - e_j e_i^T, which is the
    # plane generator of the ordered frame (e_j, e_i)
    x = np.zeros(n)
    x[j - 1] = 1.0
    y = np.zeros(n)
    y[i - 1] = 1.0
    psi = float(np.mod(theta, 2.0 * np.pi))
    if psi == 0.0:
        raise ValueError("rotation angle must not be a multiple of 2 pi")
    if psi > np.pi:
        # rotation by psi in (x, y) equals rotation by 2 pi - psi in (y, x)
        x, y, psi = y, x, 2.0 * np.pi - psi
    return _plane_geodesic_leg(x, y, psi, n, max_step=max_step)


def plan_group_path(
    A: np.ndarray,
    max_step: float = DEFAULT_MAX_STEP,
    tol: float = 1e-8,
) -> GroupPath:
    """Horizontal path from Id to A built from the global factorization.

    Legs run boost first, then one geodesic leg per 2x2 plane of every
    spectral block in increasing angle, so the assembled product is
    prod_j Exp(theta_j B_j) * exp_h(u) = A.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0] - 1
    if classify(A) is not Membership.SO0:
        raise ValueError("plan_group_path needs an SO0 input")
    blocks, u = factorize(A, tol=tol)
    legs = []
    if np.linalg.norm(u) > 0.0:
        legs.append(boost_leg(u, max_step=max_step))
    for block in sorted(blocks.blocks, key=lambda b: b.theta):
        for x, y in block.planes:
            legs.append(_plane_geodesic_leg(x, y, block.theta, n, max_step=max_step))
    return _chain(n, legs)


def commutator_probe(
    i: int, j: int, t: float, m: int, n: int, max_step: float = DEFAULT_MAX_STEP
) -> GroupPath:
    """Boost-cycle approximation of the rotation Exp(t * Omega_ij).

    m four-leg cycles with boost parameter sqrt(t/m); the cycle orientation
    alternates between repetitions, which cancels the cubic BCH term and
    yields an O(1/m) endpoint error.
    """
    if i == j:
        raise ValueError("commutator_probe needs i != j")
    if m < 1:
        raise ValueError("m >= 1 required")
    if t == 0.0:
        return _chain(n, [])
    if t < 0.0:
        i, j = j, i
        t = -t
    s = np.sqrt(t / m)
    ei = np.zeros(n)
    ei[i - 1] = s
    ej = np.zeros(n)
    ej[j - 1] = s
    # a generator, so each leg is dropped once it is chained
    signs = (1.0 if rep % 2 == 0 else -1.0 for rep in range(m))
    legs = (boost_leg(v, max_step=max_step)
            for sign in signs for v in (sign * ej, sign * ei, -sign * ej, -sign * ei))
    return _chain(n, legs)


# ---------------------------------------------------------------------------
# Configuration-space planners
# ---------------------------------------------------------------------------


def _on_grid(grid: SnakeConfig, nodes: np.ndarray) -> SnakeConfig:
    """Configuration with the given nodes on grid's partition and quadrature.

    A conformal map or an integrator step can stretch angular spacing, so
    the resolution bound is relaxed to what the moved nodes realize.
    """
    return SnakeConfig(
        L=grid.L, partition=grid.partition, nodes=nodes, times=grid.times,
        weights=grid.weights, nodes_per_segment=grid.nodes_per_segment,
        max_node_angle=float(np.pi),
    )


def act(A: np.ndarray, u: SnakeConfig, check: bool = True) -> SnakeConfig:
    """Node-wise sphere action of A on a configuration, on u's grid."""
    return _on_grid(u, mobius_sphere_action_many(np.asarray(A, dtype=float), u.nodes, check=check))


def infinitesimal_action(X: LieElement, u: SnakeConfig) -> np.ndarray:
    """Derivative field of the action: a(X)(u)(s) = (w - <w,u>u) + B u(s)."""
    if X.dim != u.dim:
        raise ValueError("dimension mismatch")
    return horizontal_gradient(X.u, u) + u.nodes @ X.skew.T


@dataclass
class ConfigPath:
    """Time-gridded horizontal path of configurations with control records.

    Every step shares the partition and quadrature of grid (the start
    configuration); nodes[k] holds the unit directions at times[k].
    """

    times: np.ndarray  # (m+1,)
    grid: SnakeConfig
    nodes: np.ndarray  # (m+1, K, n)
    controls: np.ndarray  # (m, n): fitted direction w per step
    velocities: np.ndarray | None = None  # (m, K, n) true velocity at step start
    tracking_errors: np.ndarray | None = None  # head tracking, lifts only

    @property
    def head_trace(self) -> np.ndarray:
        """Head position E(u) at every time, (m+1, n)."""
        return self.grid.weights @ self.nodes

    def config(self, k: int) -> SnakeConfig:
        """The configuration at step k."""
        return _on_grid(self.grid, self.nodes[k])

    @property
    def final(self) -> SnakeConfig:
        return self.config(-1)


def action_velocity(u: np.ndarray, A: np.ndarray, u0: SnakeConfig) -> np.ndarray:
    """Node-wise velocity of t -> act(exp_h(t u) A, u0) at t = 0.

    u (..., n) and A (..., n+1, n+1) may be stacks; the result is (..., K, n).
    Differentiates the projective light-cone formula directly, so the result
    is independent of the horizontal-gradient expression it is tested against.
    """
    Z1 = np.concatenate([np.ones((u0.nodes.shape[0], 1)), u0.nodes], axis=1)
    W = Z1 @ np.swapaxes(A, -1, -2)
    D = W @ np.swapaxes(_boost_generator(np.asarray(u, dtype=float)), -1, -2)
    z_new = W[..., 1:] / W[..., :1]
    return (D[..., 1:] - z_new * D[..., :1]) / W[..., :1]


def steer_config(
    u0: SnakeConfig,
    A: np.ndarray,
    max_step: float = DEFAULT_MAX_STEP,
    tol: float = 1e-8,
) -> ConfigPath:
    """Push u0 along a horizontal group path to act(A, u0).

    Every step control lies in h, so the configuration velocities are
    horizontal fields w - <w,u>u with w the recorded control vector.
    """
    A = np.asarray(A, dtype=float)
    if u0.dim != A.shape[0] - 1:
        raise ValueError("dimension mismatch between config and matrix")
    plan = plan_group_path(A, max_step=max_step, tol=tol)
    nodes = mobius_sphere_action_many(plan.matrices, u0.nodes, check=False)
    vels = action_velocity(plan.controls, plan.matrices[:-1], u0)
    return ConfigPath(times=plan.times, grid=u0, nodes=nodes, controls=plan.controls,
                      velocities=vels)


def horizontal_lift(
    u0: SnakeConfig,
    head,
    head_dot,
    t_final: float = 1.0,
    dt: float = 1e-3,
    margin_min: float | None = None,
    track_tol: float | None = None,
    start_tol: float = 1e-6,
) -> ConfigPath:
    """Minimal-energy lift of a head curve: solve A_u w = c'(t), advance the
    nodes by w - <w,u>u with classical RK4, renormalizing after every step.

    head and head_dot are callables on [0, t_final].  Aborts with
    SingularityApproach when lambda_min(A_u) drops below margin_min;
    head targets leaving the reachable ball are rejected up front.
    """
    if margin_min is None:
        margin_min = 1e-3 * u0.L
    singular, margin = is_singular(u0, tol=margin_min)
    if singular:
        raise SingularityApproach(0.0, margin)
    c0 = np.asarray(head(0.0), dtype=float)
    if np.linalg.norm(c0 - endpoint(u0)) > max(start_tol, 1e-9 * u0.L):
        raise ValueError("head curve must start at endpoint(u0)")
    probe_ts = np.linspace(0.0, t_final, 257)
    if max(np.linalg.norm(np.asarray(head(t), dtype=float)) for t in probe_ts) >= u0.L:
        raise ValueError("head target leaves the closed ball of radius L")

    L = u0.L
    weights = u0.weights
    eye = np.eye(u0.dim)

    def velocity(t: float, nodes: np.ndarray) -> np.ndarray:
        G = (nodes * weights[:, None]).T @ nodes
        Aop = L * eye - 0.5 * (G + G.T)
        vals, vecs = np.linalg.eigh(Aop)
        if vals[0] < margin_min:
            raise SingularityApproach(t, float(vals[0]))
        w = vecs @ ((vecs.T @ np.asarray(head_dot(t), dtype=float)) / vals)
        return w[None, :] - (nodes @ w)[:, None] * nodes, w

    m = max(1, int(round(t_final / dt)))
    times = np.linspace(0.0, t_final, m + 1)
    h = times[1] - times[0] if m > 0 else 0.0
    controls = np.zeros((m, u0.dim))
    vels = np.zeros((m,) + u0.nodes.shape)
    nodes = np.empty((m + 1,) + u0.nodes.shape)
    nodes[0] = u0.nodes
    for k in range(m):
        t = times[k]
        y = nodes[k]
        k1, w1 = velocity(t, y)
        k2, _ = velocity(t + 0.5 * h, y + 0.5 * h * k1)
        k3, _ = velocity(t + 0.5 * h, y + 0.5 * h * k2)
        k4, _ = velocity(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nodes[k + 1] = y / np.linalg.norm(y, axis=1)[:, None]
        controls[k] = w1
        vels[k] = k1
    path = ConfigPath(times=times, grid=u0, nodes=nodes, controls=controls, velocities=vels)
    heads = path.head_trace
    track = np.array([np.linalg.norm(heads[k] - np.asarray(head(times[k]), dtype=float))
                      for k in range(m + 1)])
    if track_tol is not None and track.max() > track_tol:
        raise RuntimeError(
            f"head tracking error {track.max():.3e} above {track_tol:.1e} "
            f"(worst at t = {times[int(track.argmax())]:.4f})"
        )
    path.tracking_errors = track
    return path


def config_velocity_residuals(path: ConfigPath, subsample: int = 1) -> np.ndarray:
    """fit_horizontal residuals of centered finite-difference velocities.

    A diagnostic for the horizontality of a ConfigPath that does not reuse
    the recorded controls.
    """
    res = []
    for k in range(1, len(path.nodes) - 1, subsample):
        dt = path.times[k + 1] - path.times[k - 1]
        cfg = path.config(k)
        v = project_tangent(cfg, (path.nodes[k + 1] - path.nodes[k - 1]) / dt)
        res.append(fit_horizontal(cfg, v).residual)
    return np.array(res)
