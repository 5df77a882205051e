"""Horizontal path synthesis in SO0(n,1) and on snake configurations.

Group paths are sampled curves gamma with gamma(0) = Id whose step controls
are the right logarithmic derivatives Y = gamma' gamma^{-1}; a path is
horizontal when every Y lies in the boost subspace h.  New legs extend a
path by left multiplication (gamma -> leg * gamma), which preserves this
notion of horizontality and matches the way the factorization
A = prod_j Exp(theta_j B_j) * exp_h(u) is rebuilt leg by leg.  A leg acts
only on span(e0, u) or span(e0, x, y), so it is held in that frame of at
most 3 dimensions, and a path is its times and legs: each leg's controls are
a closed function of the leg, formed from it when asked for.  Every control
has unit norm, so a path's length is its last time.

Rotation endpoints are not reachable along h directly; each planar rotation
leg is a normal geodesic

    gamma(tau) = Exp(-tau * Omega) @ Exp(tau * (U + Omega)),

whose control Ad_{Exp(-tau Omega)} U stays in h with unit norm.  The leg
reaches Exp(theta * g) exactly once the elliptic frequency closes
(sqrt(eta^2 - 1) * T = 2 pi), at arc length T = sqrt(theta^2 + 4 pi theta).
The configuration-space planners push these paths through the sphere
action node-wise, steer_config one plan leg at a time in the coordinates of
the leg's own frame; their velocities tangent_at(nodes[k], controls[k]) are
then genuine horizontal fields, and steer_config checks every step against
the boost of its control.  steer_config and horizontal_lift return a
record with no node history; steer_history and lift_history return
(record, every node set).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .lorentz import (LieElement, _plane_indices, _positive, _row_norms, exp_h, factorize,
                      spatial_block)
from .rotations import _plane_generator, planar_rotation
from .snake import SnakeConfig, _gram, endpoint, fit_horizontal
from .sphere import NotOrthochronous, mobius_sphere_action_many, sphere_point, tangent_at

__all__ = [
    "GroupPath",
    "LiftPath",
    "LegRecord",
    "act",
    "infinitesimal_action",
    "boost_leg",
    "su11_geodesic",
    "rotation_leg",
    "plan_group_path",
    "commutator_probe",
    "steer_config",
    "steer_history",
    "SteerPath",
    "horizontal_lift",
    "lift_history",
    "SingularityApproach",
]

DEFAULT_MAX_STEP = 0.02
DEFAULT_LIFT_STEP = 1e-3  # horizontal_lift's dt
# a geodesic leg turns through one full elliptic period, freq * T = 2 pi,
# whatever its length T, so it gets at least this many steps
GEODESIC_MIN_STEPS = 32
LIFT_MARGIN_FACTOR = 1e-3  # horizontal_lift aborts below lambda_min(A_u) = factor * L
# most steps one leg, probe or lift may take, checked before anything is
# allocated: ~9x the 10,899 of a seeded random_so0 steer at n = 96
MAX_STEPS = 100_000


class SingularityApproach(RuntimeError):
    """Horizontal lift got too close to the singular set."""

    def __init__(self, time: float, margin: float):
        super().__init__(f"lambda_min(A_u) = {margin:.3e} at t = {time:.6f}")
        self.time = time
        self.margin = margin


@dataclass(frozen=True, eq=False)
class LegRecord:
    """One leg of a group path, held in its own frame.

    The leg acts only on span(e0, F), F = [u/|u|] for a boost and [x, y]
    for a plane, so it is stored at that frame's dimension d <= 2: frame is
    P = diag(1, F), (n+1, d+1), and blocks are its matrices S, (s+1, d+1, d+1)
    in SO0(d,1); at dimension n the leg's matrix is Id + P (S - Id) P^T.
    Its times are linspace(0, length, steps + 1) and its controls derive from
    it too.  plan.json writes it as what its builder takes: u for a boost,
    theta and the frame rows x, y for a plane.
    """

    kind: str  # "boost" | "rotation"
    length: float
    steps: int
    frame: np.ndarray  # (n+1, d+1)
    blocks: np.ndarray  # (s+1, d+1, d+1)
    theta: float = 0.0
    u: np.ndarray | None = None

    @cached_property
    def controls(self) -> np.ndarray:
        """(s, d): each step's control in the frame coordinates F^T w, formed
        once per leg: e1 on a boost leg, and (cos, -sin)(tau eta) at the step
        midpoints tau on a geodesic leg, eta its vertical parameter."""
        if self.kind == "boost":
            return np.ones((self.steps, 1))
        times = np.linspace(0.0, self.length, self.steps + 1)
        angle = 0.5 * (times[:-1] + times[1:]) * _vertical_parameter(self.theta)[0]
        return np.stack([np.cos(angle), -np.sin(angle)], axis=1)

    @cached_property
    def end(self) -> np.ndarray:
        """The leg's last matrix at dimension n, formed once per leg."""
        P, S = self.frame, self.blocks[-1]
        return np.eye(len(P)) + P @ (S - np.eye(len(S))) @ P.T


@dataclass
class GroupPath:
    """Time-gridded horizontal path in SO0(n,1), held leg by leg in the legs'
    own frames (LegRecord), gamma(s) = leg(s - t_start) @ gamma(t_start).
    The control of each step is its leg's (LegRecord.controls), in the leg's
    frame coordinates."""

    times: np.ndarray  # (m+1,)
    legs: list
    dim: int  # n

    def endpoint(self) -> np.ndarray:
        G = np.eye(self.dim + 1)
        for leg in self.legs:
            G = leg.end @ G
        return G

    def length(self) -> float:
        """The integral of |Y| dt, which is the last time: every control has
        unit norm, and _join sums the leg lengths left to right."""
        return float(self.times[-1])

    def leg_lengths(self) -> dict:
        return {kind: float(sum(leg.length for leg in self.legs if leg.kind == kind))
                for kind in ("boost", "rotation")}

    def consistency_residual(self) -> float:
        """max_k || S_{k+1} - exp_h(dt c_k) S_k ||, every leg's blocks S against
        its frame controls c; O(dt^3) per step."""
        h, worst, k = np.diff(self.times), 0.0, 0
        for leg in self.legs:
            end = k + leg.steps
            steps = exp_h(h[k:end, None] * leg.controls) @ leg.blocks[:-1]
            worst = max(worst, np.linalg.norm(steps - leg.blocks[1:], axis=(1, 2)).max())
            k = end
        return float(worst)


def _join(n: int, legs) -> GroupPath:
    """The path that runs every leg in turn: their times and records
    concatenated once."""
    times, records = [np.zeros(1)], []
    for leg in legs:
        times.append(times[-1][-1] + leg.times[1:])
        records.extend(leg.legs)
    return GroupPath(times=np.concatenate(times), legs=records, dim=n)


def _within_cap(count: float, cause: str) -> int:
    """count as an int, rejecting more than MAX_STEPS steps (or a nan count)."""
    if not count <= MAX_STEPS:
        raise ValueError(f"{cause} gives {count:.3g} steps, more than MAX_STEPS = {MAX_STEPS}")
    return int(count)


def _steps_for(length: float, max_step: float) -> int:
    _positive("step", max_step)
    return max(2, _within_cap(np.ceil(length / max_step), f"step = {max_step}"))


def boost_leg(u_vec: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> GroupPath:
    """Arc-length boost ray tau -> exp_h(tau * u/|u|) on [0, |u|], held in the
    frame [u/|u|] as the blocks exp_h(tau * [1])."""
    u_vec = np.atleast_1d(np.asarray(u_vec, dtype=float))
    T = float(np.linalg.norm(u_vec))
    if T == 0.0:
        raise ValueError("boost_leg needs a nonzero vector")
    uh = u_vec / T
    m = _steps_for(T, max_step)
    times = np.linspace(0.0, T, m + 1)
    record = LegRecord(kind="boost", length=T, steps=m, frame=spatial_block(uh[:, None]),
                       blocks=exp_h(times[:, None] * [1.0]), u=u_vec.copy())
    return GroupPath(times=times, legs=[record], dim=len(u_vec))


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
    max_step: float = DEFAULT_MAX_STEP,
) -> GroupPath:
    """Right-horizontal normal geodesic from Id to Exp(theta * g_{xy}).

    gamma(tau) = Exp(-tau * eta * Omega_g) @ Exp(tau * (U_x + eta * Omega_g)),
    control Ad U_x of constant unit norm; endpoint closes at
    T = sqrt(theta^2 + 4 pi theta).  The blocks are built in the frame
    [x, y], with e1 and e2 for x and y.
    """
    if not 0.0 < theta <= np.pi + 1e-12:
        raise ValueError("plane geodesic needs an angle in (0, pi]")
    eta, freq, T = _vertical_parameter(theta)
    g = _plane_generator(*np.eye(2))
    M = np.zeros((3, 3))
    M[0, 1] = M[1, 0] = 1.0
    M[1:, 1:] = eta * g

    m = max(GEODESIC_MIN_STEPS, _steps_for(T, max_step))
    times = np.linspace(0.0, T, m + 1)
    # (M / freq)^3 = -M / freq, so Exp(tau M) is a planar rotation by freq * tau
    exp_tm = planar_rotation(M / freq, freq * times)
    blocks = spatial_block(planar_rotation(g, -times * eta)) @ exp_tm
    record = LegRecord(kind="rotation", length=T, steps=m, theta=theta,
                       frame=spatial_block(np.stack([x, y], axis=1)), blocks=blocks)
    return GroupPath(times=times, legs=[record], dim=len(x))


def su11_geodesic(theta: float, max_step: float = DEFAULT_MAX_STEP) -> GroupPath:
    """Horizontal geodesic leg in SO(2,1) from Id to the rotation by theta.

    The endpoint is exact; the realized arc length is
    sqrt(theta^2 + 4 pi |theta|), the minimum over the normal-geodesic
    family (a rotation is a vertical displacement, so no horizontal path
    of length |theta| exists).
    """
    if not 0.0 < abs(theta) <= np.pi + 1e-12:
        raise ValueError("su11_geodesic needs 0 < |theta| <= pi")
    if theta > 0:
        return rotation_leg(2, 1, theta, 2, max_step=max_step)
    return rotation_leg(1, 2, -theta, 2, max_step=max_step)


def rotation_leg(
    i: int, j: int, theta: float, n: int, max_step: float = DEFAULT_MAX_STEP
) -> GroupPath:
    """Geodesic leg to Exp(theta * Omega_ij) in SO0(n,1), angle folded into (0, pi]."""
    _plane_indices(i, j, n)
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
    return _plane_geodesic_leg(x, y, psi, max_step=max_step)


def plan_group_path(A: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> GroupPath:
    """Horizontal path from Id to A built from the global factorization
    A = prod_j Exp(theta_j B_j) * exp_h(u): the boost leg to exp_h(u), then
    one geodesic leg per 2x2 plane of every spectral block in increasing
    angle.  factorize rejects input outside SO0(n,1) with NotLorentz."""
    _positive("step", max_step)
    A = np.asarray(A, dtype=float)
    blocks, u = factorize(A)
    legs = [boost_leg(u, max_step=max_step)] if np.linalg.norm(u) > 0.0 else []
    legs += [_plane_geodesic_leg(x, y, block.theta, max_step=max_step)
             for block in sorted(blocks.blocks, key=lambda b: b.theta) for x, y in block.planes]
    return _join(A.shape[0] - 1, legs)


def commutator_probe(
    i: int, j: int, t: float, m: int, n: int, max_step: float = DEFAULT_MAX_STEP
) -> GroupPath:
    """Boost-cycle approximation of the rotation Exp(t * Omega_ij).

    m four-leg cycles with boost parameter sqrt(t/m); the cycle orientation
    alternates between repetitions, which cancels the cubic BCH term and
    yields an O(1/m) endpoint error.
    """
    _plane_indices(i, j, n)
    _positive("step", max_step)
    if not 1 <= m <= MAX_STEPS:
        raise ValueError(f"m must be in 1..MAX_STEPS = {MAX_STEPS}, got {m}")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return _join(n, [])
    if t < 0.0:
        i, j = j, i
        t = -t
    s = np.sqrt(t / m)
    legs = max(2.0, np.ceil(s / max_step))  # _steps_for of each boost leg
    _within_cap(4 * m * legs, f"t = {t}, m = {m}, step = {max_step}")
    ei, ej = s * np.eye(n)[[i - 1, j - 1]]
    # the four legs differ in their frames [v / |v|] alone: one boost leg, re-framed
    leg = boost_leg(ej, max_step=max_step).legs[0]
    base = [replace(leg, frame=spatial_block((v / leg.length)[:, None]), u=v)
            for v in (ej, ei, -ej, -ei)]
    # odd repetitions run the cycle reversed, (-ej, -ei, ej, ei): the path is
    # this period, repeated and cut to 4m legs, and the leg offsets are
    # _join's left-to-right sums of its end.
    period, reps = (base + base[2:] + base[:2])[: 4 * m], (m + 1) // 2
    tau = np.linspace(0.0, leg.length, leg.steps + 1)
    offsets = np.concatenate([[0.0], np.cumsum(np.full(4 * m - 1, tau[-1]))])
    times = np.concatenate([[0.0], (offsets[:, None] + tau[1:]).ravel()])
    return GroupPath(times=times, legs=(period * reps)[: 4 * m], dim=n)


# ---------------------------------------------------------------------------
# Configuration-space planners
# ---------------------------------------------------------------------------


def _on_grid(grid: SnakeConfig, nodes: np.ndarray) -> SnakeConfig:
    """Configuration with the given nodes on grid's partition and quadrature.

    A conformal map or an integrator step can stretch angular spacing, so
    the resolution bound is relaxed to what the moved nodes realize.
    """
    return SnakeConfig(L=grid.L, partition=grid.partition, nodes=nodes,
                       max_node_angle=float(np.pi))


def act(A: np.ndarray, u: SnakeConfig) -> SnakeConfig:
    """Node-wise sphere action of A, which must lie in SO0(n,1), on a
    configuration, on u's grid."""
    return _on_grid(u, mobius_sphere_action_many(np.asarray(A, dtype=float), u.nodes))


def infinitesimal_action(X: LieElement, u: SnakeConfig) -> np.ndarray:
    """Derivative field of the action: a(X)(u)(s) = (w - <w,u>u) + B u(s)."""
    if X.dim != u.dim:
        raise ValueError("dimension mismatch")
    return tangent_at(u.nodes, X.u) + u.nodes @ X.skew.T


@dataclass
class SteerPath:
    """Record of a steer, without its node history: per time the head E(u),
    per step the step check's residual and bound (_consistency), the node
    sets at every sample_every-th time and the final configuration.  The
    controls are the plan legs' (LegRecord.controls).  steer_history gives
    the nodes as well."""

    times: np.ndarray  # (m+1,)
    grid: SnakeConfig  # the start configuration
    legs: list  # LegRecords of the group plan
    head_trace: np.ndarray  # (m+1, n)
    final: SnakeConfig
    residuals: np.ndarray  # (m,) r_k
    bounds: np.ndarray  # (m,) the bound r_k must stay under
    sample_every: int  # max(1, (m+1) // 32)
    samples: np.ndarray  # (S, K, n): the node sets at times[::sample_every]


@dataclass
class LiftPath:
    """Record of a horizontal lift, without its nodes: per time the head
    E(u) and its distance from the head curve, per step the control and the
    step-start margin lambda_min(A_u), and the final configuration.
    lift_history gives the nodes as well."""

    times: np.ndarray  # (m+1,)
    grid: SnakeConfig  # the start configuration
    controls: np.ndarray  # (m, n): boost vector w per step
    head_trace: np.ndarray  # (m+1, n)
    final: SnakeConfig
    tracking_errors: np.ndarray  # (m+1,) |E(u(t)) - c(t)|
    margins: np.ndarray  # (m,)
    eigen_solves: int  # exact eigen-solves of A_u


def steer_config(u0: SnakeConfig, A: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> SteerPath:
    """Push u0 along plan_group_path(A)'s horizontal path to act(A, u0),
    checking every step as it goes.  The path's times and legs are the
    plan's.  A leg moves a node only through its d <= 2 coordinates in
    the leg's frame and one scale (_leg_frame), so whole node sets are formed
    only at the leg ends and every (m+1) // 32-th time: a steer holds
    O(m (n + K)) and returns a SteerPath with no node history."""
    return _steer(u0, A, max_step)


def steer_history(u0: SnakeConfig, A: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> tuple:
    """(record, nodes): steer_config's SteerPath and every node set of the
    steer, (m+1, K, n), formed from the same walk's frame coordinates."""
    sets = [u0.nodes[None]]
    record = _steer(u0, A, max_step, sets)
    return record, np.concatenate(sets)


def _steer(u0: SnakeConfig, A: np.ndarray, max_step: float, history: list | None = None):
    """steer_config, appending each leg's node sets but its first to a list history."""
    A = np.asarray(A, dtype=float)
    if u0.dim != A.shape[0] - 1:
        raise ValueError("dimension mismatch between config and matrix")
    plan = plan_group_path(A, max_step=max_step)
    n, K, m = u0.dim, u0.nodes.shape[0], len(plan.times) - 1
    head_trace = np.empty((m + 1, n))
    head_trace[0] = u0.weights @ u0.nodes
    every = max(1, (m + 1) // 32)
    samples = np.empty((len(range(0, m + 1, every)), K, n))
    samples[0] = u0.nodes
    residuals, bounds = np.empty((2, m))
    # a leg's per-step rows (frame coordinates, the check's) in one array: as a dozen
    # arrays, freeing them trimmed the heap and the next call faulted it back in
    work = np.empty((8, max((leg.steps for leg in plan.legs), default=0) + 1, K))
    z, k = u0.nodes, 0
    for leg in plan.legs:
        F, end, rows = leg.frame[1:, 1:], k + leg.steps, work[:, : leg.steps + 1]
        zp, rho2, xi = _leg_frame(z, leg, rows)
        head_trace[k + 1 : end + 1] = (xi[0, 1:] @ (u0.weights[:, None] * zp)
                                       + (xi[1:, 1:] @ u0.weights).T @ F.T)
        residuals[k:end], bounds[k:end] = _consistency(
            leg, plan.times[k : end + 1], u0, zp, rho2, xi, rows[3:, :-1])
        first = -(-(k + 1) // every)  # the first sample after the leg's start
        picked = np.arange(first * every - k, leg.steps + 1, every)
        samples[first : first + len(picked)] = _node_sets(zp, F, xi, picked)
        z = _node_sets(zp, F, xi, leg.steps)
        if history is not None:
            history.append(_node_sets(zp, F, xi, slice(1, None)))
        k = end
    return SteerPath(times=plan.times, grid=u0, legs=plan.legs,
                     head_trace=head_trace, final=_on_grid(u0, z), residuals=residuals,
                     bounds=bounds, sample_every=every, samples=samples)


def _leg_frame(z: np.ndarray, leg: LegRecord, rows) -> tuple:
    """(z0perp, |z0perp|^2, xi) for the nodes z (K, n) at a leg's start, xi in
    rows[:d+1]: node s of the leg is xi_0s z0perp + F xi_s', xi' = xi[1:].  With
    q = F^T z and z0perp = z - F q the blocks S take (1, z) to (y_t, z0perp + F y_x),
    y = S (1, q); so xi = (1, y_x) / N, N^2 = |z0perp|^2 + |y_x|^2 (a sum that
    cannot cancel), and every y_t, the point's W_t, must be positive."""
    F, S = leg.frame[1:, 1:], leg.blocks
    q = z @ F
    zp = z - q @ F.T
    rho2 = np.einsum("kn,kn->k", zp, zp)
    y = np.matmul(S.transpose(1, 0, 2), np.vstack([np.ones(len(z)), q.T]), out=rows[: S.shape[-1]])
    if np.any(y[0] <= 0.0):
        raise NotOrthochronous("some image ray left the forward light cone")
    y[0] = 1.0 / np.sqrt(rho2 + np.einsum("isk,isk->sk", y[1:], y[1:]))  # y_t is read no more
    y[1:] *= y[0]
    return zp, rho2, y


def _node_sets(zp, F, xi, s) -> np.ndarray:
    """A leg's node sets at the steps s (_leg_frame), formed elementwise, so
    a node set's bits do not depend on which others are formed with it."""
    return xi[0, s, :, None] * zp + sum(xi[i + 1, s, :, None] * F[:, i] for i in range(F.shape[1]))


def _consistency(leg, times, grid: SnakeConfig, zp, rho2, xi, rows) -> tuple:
    """(r, bound), both (steps,), for one leg of a steer from its times
    (steps+1,), its frame controls v (LegRecord.controls) and its frame
    coordinates (_leg_frame), with five scratch rows (steps, K): the L^2
    distance r_k of node set k+1 from the closed-form boost exp_h(h w_k),
    w = F v, acting on node set k, and its bound.

    With c = cosh(h|w|), s = sinh(h|w|), e = v / |v| and p = <F e, z>, the
    boost takes a node z to (z + gamma D F e) / D, D = c + s p and
    gamma = (s + (c - 1) p) / D.  Node j is xi_0j z0perp + F xi_j', so
    p = <e, xi_j'> and its image less node j+1 is res_0 z0perp + F res',
    res = xi_j / D + gamma (0, e) - xi_{j+1}, of squared norm
    |(|z0perp| res_0, res')|^2.  Every point of the sphere moves under a
    Lie-algebra element by at most its boost norm plus its rotation rate,
    and the quadrature weights sum to L, so
    r_k <= sqrt(L) (magnus_k + rounding_k):

    - magnus_k.  Over a step, the path's group increment is exp(Omega), Omega
      the Magnus expansion of its control Y, of which exp_h(h Y_mid) keeps the
      first term.  A boost leg's control is constant: Omega = h Y_mid.  On a
      geodesic leg Y turns at the rate |eta| of the leg's vertical parameter,
      and the step is a rotation conjugate of the palindromic product
      Exp(-h eta Omega_g / 2) Exp(h (U + eta Omega_g)) Exp(-h eta Omega_g / 2),
      whose expansion is odd in h:
      Omega - h Y_mid = h^3 Y'' / 24 - h^3 [Y, Y'] / 12 + O(h^5), a boost of
      norm h^3 eta^2 / 24 and a plane rotation of rate h^3 |eta| / 12.  So
      magnus_k = h^3 (eta^2 / 24 + |eta| / 12) (1 + x^2), x = |eta| h: with
      |eta| > 1 the O(h^5) terms are O(x^2) relative, and the exact action
      puts their coefficient between -0.03 and 0.06 for x <= 3 pi / 32 (a
      geodesic leg turns through |eta| T = theta + 2 pi <= 3 pi in at least
      GEODESIC_MIN_STEPS steps).
    - rounding_k.  A node is (z0perp + F y_x) / N, y = S (1, q), q = F^T z0
      and z0perp = z0 - F q at the leg's start (_leg_frame), |S|_2 = e^rho
      the norm of the leg's block: rho is the boost leg's rapidity so far,
      and on a geodesic leg cosh rho = 1 + (1 - cos(freq s)) / freq^2
      <= 1 + T^2 / (2 pi^2).  An error common to a leg's steps moves its start
      point, whose orbit the check follows too.  Of the rest: q's n-term sums
      err by |dq| <= sqrt(2) n eps, which z0perp takes up again, so W_x misses
      the image of (1, z0) by F ((S - Id)(0, dq))_x; z0perp's and y's sums run
      over d + 1 <= 3 terms and S's closed forms err by 4 eps |S|, on
      |(1, q)| <= sqrt(2).  So |dW_x| <= sqrt(2) eps ((n + 6) + (n + 7) |S|),
      within (n + 8) eps sqrt(2) (1 + |S|) as for W formed at dimension n.
      The node moves by |dW_x| / W_t (W_t = y_t = N), plus (n / 2 + 3) eps
      for N's n + d squares, its root and the scalings, where 1 / W_t <= |S|
      (|W0| = sqrt(2) <= |S| |W|), and on a boost leg
      1 / W_t = cosh(tau) - sinh(tau) <w, z> / |w| is the node's own, tau into
      the leg.  F^T z0perp = -dq puts the node's length off 1 by |dq| / W_t,
      which changes by O(h) a step and cancels from r_k, and p by as much,
      which moves the image by 2 sinh(h|w|) times that.  The check's boost
      stretches node k's error, and node k+1's 1 / W_t, by at most e^{h|w|},
      and its sums add (n + 8) eps (n terms in |z0perp|^2, d + 1 in the
      rest); so a node is off by at most
      (n + 8) eps ((1 + e^{h|w|}) (sqrt(2) (1 + |S|) / W_t + 1) + 1), and
      rounding_k is its L^2 norm over the nodes, divided by sqrt(L).  A node
      near a boost's repelling point reads up to eps e^{2 rho}; one pushed
      towards its attracting point, a few eps.
    """
    v = leg.controls
    h, speed = np.diff(times), _row_norms(v)
    hw, e = h * speed, v / speed[:, None]
    c, sn = np.cosh(hw)[:, None], np.sinh(hw)[:, None]
    p, inv, gamma, res, r2 = rows
    np.einsum("sd,dsk->sk", e, xi[1:, :-1], out=p)
    np.divide(1.0, c + sn * p, out=inv)
    np.multiply(sn + (c - 1.0) * p, inv, out=gamma)
    np.subtract(xi[0, :-1] * inv, xi[0, 1:], out=res)  # res_0
    np.multiply(res * res, rho2, out=r2)
    for i in range(v.shape[1]):  # res_i, along F
        np.subtract(xi[i + 1, :-1] * inv + gamma * e[:, i, None], xi[i + 1, 1:], out=res)
        r2 += np.multiply(res, res, out=res)
    r = np.sqrt(r2 @ grid.weights)
    # rounding per node: (n + 8) eps ((1 + e^{h|w|}) (sqrt(2) (1 + |S|) / W_t + 1) + 1)
    unit_err = (grid.dim + 8) * np.finfo(float).eps
    stretch = np.exp(hw)
    if leg.kind == "rotation":
        eta = abs(_vertical_parameter(leg.theta)[0])
        cosh_rho = 1.0 + leg.length**2 / (2.0 * np.pi**2)
        S = cosh_rho + np.sqrt(cosh_rho * cosh_rho - 1.0)  # 1 / W_t <= |S|
        magnus = h**3 * (eta * eta / 24.0 + eta / 12.0) * (1.0 + (eta * h) ** 2)
        bound = magnus + unit_err * ((1.0 + stretch) * (np.sqrt(2.0) * (1.0 + S) * S + 1.0) + 1.0)
    else:
        # each node's own 1 / W_t = cosh(tau) - sinh(tau) <w, z> / |w|, tau
        # into the leg, stretched by e^{h|w|} to cover node k+1
        tau = times[:, None] - times[0]
        inv_wt = stretch[:, None] * (np.cosh(tau[:-1]) - np.sinh(tau[:-1]) * p)
        node = (1.0 + stretch[:, None]) * (
            np.sqrt(2.0) * (1.0 + np.exp(tau[1:])) * inv_wt + 1.0) + 1.0
        bound = unit_err * np.sqrt(node**2 @ grid.weights / grid.L)
    return r, np.sqrt(grid.L) * bound


def horizontal_lift(u0: SnakeConfig, head, head_dot, t_final: float = 1.0,
                    dt: float = DEFAULT_LIFT_STEP) -> LiftPath:
    """Minimal-energy lift of a head curve: solve A_u w = c'(t), advance the
    nodes by w - <w,u>u with classical RK4, renormalizing after every step.

    head and head_dot map a 1-D array of times in [0, t_final] to an array
    of shape (len, n), as the pair from spline.not_a_knot does; each is
    evaluated once per time grid.  Aborts with SingularityApproach when
    lambda_min(A_u) drops below LIFT_MARGIN_FACTOR * L; head targets leaving
    the reachable ball are rejected up front.

    Each step starts with an exact eigen-solve of A_u, which gives the
    control, the abort check and the step's margin lambda_min(A_u).  The
    three later RK4 stages solve A w = c' directly when Weyl's inequality
    certifies them, lambda_min(A) >= lambda_min(A_0) - |A - A_0|_2
    >= lambda_min(A_0) - |A - A_0|_F > 1e-3 L (A_0 the step-start matrix,
    plus an allowance for eigh's rounding); a stage the certificate cannot
    vouch for falls back to the exact eigen-solve and abort check, so an
    abort happens at the same stage as with an eigen-solve at every stage.

    A step reads its nodes from one of two buffers and writes the next ones
    into the other, whose head row it records.  So a lift holds O(m n) plus
    two node sets, and returns a LiftPath with no node history.  The step's
    products (the Gram matrices, the node-wise dots, the control and the
    head row) go through np.dot into buffers allocated once per lift.
    """
    return _lift(u0, head, head_dot, t_final, dt)


def lift_history(u0: SnakeConfig, head, head_dot, t_final: float = 1.0,
                 dt: float = DEFAULT_LIFT_STEP) -> tuple:
    """(record, nodes): horizontal_lift's LiftPath and every node set of the
    lift, (m+1, K, n), from the same loop."""
    sets = [u0.nodes]
    return _lift(u0, head, head_dot, t_final, dt, sets), np.stack(sets)


def _lift(u0: SnakeConfig, head, head_dot, t_final: float, dt: float, history: list | None = None):
    """horizontal_lift, appending a copy of each node set after the first to
    a list history.

    A step writes its stage arrays into buffers allocated once per lift,
    with the arithmetic of the plain expressions, so the bits are theirs.
    Its products go through np.dot(..., out=), which gives np.matmul's bits
    on these shapes at less call overhead, and the step-start eigen-solve
    is written inline; exact serves step 0 and the stages that fall back.
    The returned arrays are the record's own.
    """
    n = u0.dim
    margin_min = LIFT_MARGIN_FACTOR * u0.L
    # eigh's eigenvalues are off from A_u's by a few n eps |A_u|_2 <= n eps L,
    # and so is the lower triangle it reads; 1e-12 L covers both
    certified_min = margin_min + 1e-12 * u0.L

    def evaluate(curve, ts: np.ndarray) -> np.ndarray:
        vals = np.asarray(curve(ts), dtype=float)
        if vals.shape != (ts.shape[0], n):
            raise ValueError(f"head curve gave shape {vals.shape}, expected {(ts.shape[0], n)}")
        if not np.isfinite(vals).all():
            raise ValueError("head curve gave a non-finite value")
        return vals

    _positive("step", dt)
    m = max(1, _within_cap(np.round(t_final / dt), f"step = {dt}"))
    times = np.linspace(0.0, t_final, m + 1)
    h = times[1] - times[0]
    heads = evaluate(head, times)
    # RK4 stage times t, t + h/2 and t + h; t + h rather than the next grid
    # time, which can differ from it in the last bit
    rate, rate_mid, rate_end = (evaluate(head_dot, times[:-1] + s) for s in (0.0, 0.5 * h, h))
    eigen_solves = 0
    eigh, solve = np.linalg.eigh, np.linalg.solve
    dot, vdot, add, subtract = np.dot, np.vdot, np.add, np.subtract
    multiply, divide, sqrt = np.multiply, np.divide, np.sqrt

    # every array a step writes, allocated once per lift: the Gram buffers,
    # A - A0, the stage point, the four slopes, the node-wise dots and norms
    # and the control's eigen-coordinates.  The weights are repeated along
    # each node, so weighting a node set is a flat product rather than a
    # broadcast one; Gamma_u and A_u are formed as snake._gram forms them.
    weights, scaled_id = u0.weights[:, None].repeat(n, axis=1), u0.L * np.eye(n)
    weighted, point, k1, k2, k3, k4 = (np.empty_like(u0.nodes) for _ in range(6))
    G, A, delta = (np.empty((n, n)) for _ in range(3))
    dots, norms, coords = np.empty(len(u0.nodes)), np.empty(len(u0.nodes)), np.empty(n)
    dots_col, norms_col = dots[:, None], norms[:, None]
    half, sixth = 0.5 * h, h / 6.0

    def exact(t: float, A: np.ndarray, c_dot: np.ndarray) -> tuple:
        """(lambda_min(A), w) from one eigen-solve, aborting below margin_min."""
        nonlocal eigen_solves
        eigen_solves += 1
        vals, vecs = eigh(A)
        if vals[0] < margin_min:
            raise SingularityApproach(t, float(vals[0]))
        return vals[0], dot(vecs, divide(dot(c_dot, vecs, out=coords), vals, out=coords))

    controls = np.empty((m, n))
    margins = np.empty(m)
    head_trace = np.empty((m + 1, n))
    head_trace[0] = u0.weights @ u0.nodes
    buffers = np.empty((2,) + u0.nodes.shape)  # the nodes of even and of odd times
    buffers[0] = u0.nodes
    # step 0's exact solve comes first, so a singular start aborts before
    # the head curve is checked
    _, A0 = _gram(u0.weights, u0.L, u0.nodes)
    margins[0], controls[0] = exact(0.0, A0, rate[0])
    if np.linalg.norm(heads[0] - endpoint(u0)) > max(1e-6, 1e-9 * u0.L):
        raise ValueError("head curve must start at endpoint(u0)")
    if np.linalg.norm(evaluate(head, np.linspace(0.0, t_final, 257)), axis=1).max() >= u0.L:
        raise ValueError("head target leaves the closed ball of radius L")
    y, y_next = buffers
    # one row of each per step, taken lazily: a list of them would hold
    # Python objects for every step
    rows = zip(times, controls, rate, rate_mid, rate_end, head_trace[1:])
    for k, (t, w0, c_dot, c_mid, c_end, trace_row) in enumerate(rows):
        if k:
            dot(multiply(y, weights, out=weighted).T, y, out=G)
            subtract(scaled_id, G, out=A0)
            eigen_solves += 1
            vals, vecs = eigh(A0)
            if vals[0] < margin_min:
                raise SingularityApproach(t, float(vals[0]))
            margins[k] = vals[0]
            dot(vecs, divide(dot(c_dot, vecs, out=coords), vals, out=coords), out=w0)
        # Weyl's certificate for the stage matrices A: |A - A0|_F < slack
        slack = margins[k] - certified_min
        certified, slack2 = slack > 0.0, slack * slack
        # the slopes w - <w, y> y, sphere.tangent_at written in place
        dot(y, w0, out=dots)
        subtract(w0, multiply(dots_col, y, out=k1), out=k1)
        # the three later stages: step, previous slope, slope, head rate
        for s, prev, slope, c_stage in ((half, k1, k2, c_mid), (half, k2, k3, c_mid), (h, k3, k4, c_end)):
            add(y, multiply(prev, s, out=point), out=point)
            dot(multiply(point, weights, out=weighted).T, point, out=G)
            subtract(scaled_id, G, out=A)
            subtract(A, A0, out=delta)
            if certified and vdot(delta, delta) < slack2:
                w = solve(A, c_stage)
            else:
                _, w = exact(t + s, A, c_stage)
            dot(point, w, out=dots)
            subtract(w, multiply(dots_col, point, out=slope), out=slope)
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in k2, over its row
        # norms, formed as np.linalg.norm forms them
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= sixth
        k2 += y
        add.reduce(multiply(k2, k2, out=point), axis=1, out=norms)
        sqrt(norms, out=norms)
        divide(k2, norms_col, out=y_next)
        dot(u0.weights, y_next, out=trace_row)
        if history is not None:
            history.append(y_next.copy())
        y, y_next = y_next, y
    return LiftPath(times=times, grid=u0, controls=controls, head_trace=head_trace,
                    final=_on_grid(u0, y), tracking_errors=_row_norms(head_trace - heads),
                    margins=margins, eigen_solves=eigen_solves)


def config_velocity_residuals(path: SteerPath | LiftPath, nodes: np.ndarray,
                              subsample: int = 1) -> np.ndarray:
    """fit_horizontal residuals of the centered finite-difference velocities
    of a path's node sets, (record, nodes) as steer_history or lift_history
    gives them.

    A diagnostic for horizontality that does not reuse the recorded controls.
    """
    k = np.arange(1, len(nodes) - 1, subsample)
    u = sphere_point(nodes[k])
    dt = path.times[k + 1] - path.times[k - 1]
    v = tangent_at(u, (nodes[k + 1] - nodes[k - 1]) / dt[:, None, None])
    return fit_horizontal(path.grid, u, v).residual
