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
action node-wise, steer_config one leg at a time in the leg's own frame of
at most 3 dimensions; their velocities tangent_at(nodes[k], controls[k]) are
then genuine horizontal fields, and step_consistency checks every step
against the boost of its control.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lorentz import (LieElement, _plane_indices, _positive, _row_norms, exp_h, factorize,
                      spatial_block)
from .rotations import _plane_generator, planar_rotation
from .snake import SnakeConfig, _gram, endpoint, fit_horizontal
from .sphere import _cone_images, mobius_sphere_action_many, sphere_point, tangent_at

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
    "step_consistency",
    "horizontal_lift",
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
_CHECK_CHUNK = 1 << 16  # step_consistency's buffer, in doubles


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
    steps: int
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

    def endpoint(self) -> np.ndarray:
        return self.matrices[-1]

    def length(self) -> float:
        # the left-to-right sum keeps the exported length deterministic
        return float(sum(_row_norms(self.controls) * np.diff(self.times)))

    def leg_lengths(self) -> dict:
        out = {"boost": 0.0, "rotation": 0.0}
        for leg in self.legs:
            out[leg.kind] += leg.length
        return out

    def consistency_residual(self) -> float:
        """max_k || gamma_{k+1} - exp_h(dt u_k) gamma_k ||, O(dt^3) per step."""
        steps = exp_h(np.diff(self.times)[:, None] * self.controls) @ self.matrices[:-1]
        return float(np.linalg.norm(steps - self.matrices[1:], axis=(1, 2)).max(initial=0.0))


def _chain(n: int, legs) -> GroupPath:
    """Extend Id by every leg in turn, gamma(s) = leg(s - t_end) @ gamma(t_end),
    and concatenate the pieces once."""
    times, mats, controls, records = [np.zeros(1)], [np.eye(n + 1)[None]], [np.zeros((0, n))], []
    for leg in legs:
        times.append(times[-1][-1] + leg.times[1:])
        mats.append(leg.matrices[1:] @ mats[-1][-1])
        controls.append(leg.controls)
        records.extend(leg.legs)
    return GroupPath(times=np.concatenate(times), matrices=np.concatenate(mats),
                     controls=np.concatenate(controls), legs=records)


def _within_cap(count: float, cause: str) -> int:
    """count as an int, rejecting more than MAX_STEPS steps (or a nan count)."""
    if not count <= MAX_STEPS:
        raise ValueError(f"{cause} gives {count:.3g} steps, more than MAX_STEPS = {MAX_STEPS}")
    return int(count)


def _steps_for(length: float, max_step: float) -> int:
    _positive("step", max_step)
    return max(2, _within_cap(np.ceil(length / max_step), f"step = {max_step}"))


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
    mats = exp_h(times[:, None] * uh)
    return GroupPath(times=times, matrices=mats, controls=np.tile(uh, (m, 1)),
                     legs=[LegRecord(kind="boost", length=T, steps=m, u=u_vec.copy())])


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

    m = max(GEODESIC_MIN_STEPS, _steps_for(T, max_step))
    times = np.linspace(0.0, T, m + 1)
    # (M / freq)^3 = -M / freq, so Exp(tau M) is a planar rotation by freq * tau
    exp_tm = planar_rotation(M / freq, freq * times)
    mats = spatial_block(planar_rotation(g, -times * eta)) @ exp_tm
    taus = 0.5 * (times[:-1] + times[1:])
    controls = np.cos(taus * eta)[:, None] * x - np.sin(taus * eta)[:, None] * y
    return GroupPath(times=times, matrices=mats, controls=controls,
                     legs=[LegRecord(kind="rotation", length=T, steps=m, theta=theta)])


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
    return _plane_geodesic_leg(x, y, psi, n, max_step=max_step)


def _plan_legs(A: np.ndarray):
    """The legs of A's horizontal plan, in order: (None, u) for the boost
    exp_h(u), then (theta, (x, y)) for one geodesic leg per 2x2 plane of every
    spectral block in increasing angle, so that their product
    prod_j Exp(theta_j B_j) * exp_h(u) is A.  factorize rejects input
    outside SO0(n,1) with NotLorentz."""
    blocks, u = factorize(A)
    if np.linalg.norm(u) > 0.0:
        yield None, u
    for block in sorted(blocks.blocks, key=lambda b: b.theta):
        for plane in block.planes:
            yield block.theta, plane


def plan_group_path(A: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> GroupPath:
    """Horizontal path from Id to A built from the global factorization,
    one leg per _plan_legs entry."""
    _positive("step", max_step)
    A = np.asarray(A, dtype=float)
    n = A.shape[0] - 1
    return _chain(n, [boost_leg(part, max_step=max_step) if theta is None
                      else _plane_geodesic_leg(*part, theta, n, max_step=max_step)
                      for theta, part in _plan_legs(A)])


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
        return _chain(n, [])
    if t < 0.0:
        i, j = j, i
        t = -t
    s = np.sqrt(t / m)
    legs = max(2.0, np.ceil(s / max_step))  # _steps_for of each boost leg
    _within_cap(4 * m * legs, f"t = {t}, m = {m}, step = {max_step}")
    ei = np.zeros(n)
    ei[i - 1] = s
    ej = np.zeros(n)
    ej[j - 1] = s
    # odd repetitions run the cycle reversed: (-ej, -ei, ej, ei)
    base = [boost_leg(v, max_step=max_step) for v in (ej, ei, -ej, -ei)]
    return _chain(n, (base[(k + 2 * (rep % 2)) % 4] for rep in range(m) for k in range(4)))


# ---------------------------------------------------------------------------
# Configuration-space planners
# ---------------------------------------------------------------------------


def _on_grid(grid: SnakeConfig, nodes: np.ndarray) -> SnakeConfig:
    """Configuration with the given nodes on grid's partition and quadrature.

    A conformal map or an integrator step can stretch angular spacing, so
    the resolution bound is relaxed to what the moved nodes realize.
    """
    return SnakeConfig(
        L=grid.L, partition=grid.partition, nodes=nodes, weights=grid.weights,
        nodes_per_segment=grid.nodes_per_segment, max_node_angle=float(np.pi),
    )


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
class ConfigPath:
    """Time-gridded horizontal path of configurations with control records.

    Every step shares the partition and quadrature of grid (the start
    configuration); nodes[k] holds the unit directions at times[k], and nodes
    may be a strided view (steer_config's are coordinate-major in memory, an
    (n, m+1, K) array).  No velocities are stored: the
    velocity at step k is tangent_at(nodes[k], controls[k]), the horizontal
    field of the step's control.
    """

    times: np.ndarray  # (m+1,)
    grid: SnakeConfig
    nodes: np.ndarray  # (m+1, K, n)
    controls: np.ndarray  # (m, n): boost vector w per step
    tracking_errors: np.ndarray | None = None  # head tracking, lifts only
    margins: np.ndarray | None = None  # (m,) lambda_min(A_u) at step starts, lifts only
    eigen_solves: int | None = None  # exact eigen-solves of A_u, lifts only
    legs: list = field(default_factory=list)  # LegRecords of the group plan, steer only

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


def steer_config(u0: SnakeConfig, A: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> ConfigPath:
    """Push u0 along plan_group_path(A)'s horizontal path to act(A, u0).

    A leg acts only on span(e0, frame), frame = [u/|u|] for the boost and
    [x, y] for a plane, so it is built once at that frame's dimension d as
    the (s+1, d+1, d+1) blocks S of boost_leg or _plane_geodesic_leg.  It
    moves the nodes z reached at its start, as light-cone points
    W0 = (1, z)^T, to W = W0 + P (S - Id) P^T W0 with P = diag(1, frame):
    O(n K) per step, written into one (m+1, n+1, K) array whose spatial rows
    become the nodes in place, so the nodes are an (m+1, K, n) view of it.
    times and controls equal plan_group_path's bit for bit (a leg's controls
    map back to R^n one frame column at a time); the nodes differ from the
    action of its matrices by rounding.
    """
    _positive("step", max_step)
    A = np.asarray(A, dtype=float)
    n = A.shape[0] - 1
    if u0.dim != n:
        raise ValueError("dimension mismatch between config and matrix")
    framed = []  # (spatial frame (n, d), leg in SO0(d,1), its record at dimension n)
    for theta, part in _plan_legs(A):
        if theta is None:
            T = float(np.linalg.norm(part))
            leg = boost_leg(np.array([T]), max_step=max_step)
            framed.append(((part / T)[:, None], leg, replace(leg.legs[0], u=part.copy())))
        else:
            leg = _plane_geodesic_leg(*np.eye(2), theta, 2, max_step=max_step)
            framed.append((np.stack(part, axis=1), leg, leg.legs[0]))
    m = sum(record.steps for _, _, record in framed)
    times, controls = np.zeros(m + 1), np.empty((m, n))
    # coordinate-major in memory, (m+1, n+1, K) as indexed: an elementwise pass
    # over all steps then runs along rows of (m+1) K values
    W = np.empty((n + 1, m + 1, u0.nodes.shape[0])).transpose(1, 0, 2)
    W[0, 0] = 1.0
    W[0, 1:] = u0.nodes.T
    k = 0
    for frame, leg, record in framed:
        if k:  # the leg starts on the light cone at (1, z), z the node reached
            _cone_images(W[k : k + 1])
            W[k, 0] = 1.0
        d, end = frame.shape[1], k + record.steps
        P = np.zeros((n + 1, d + 1))
        P[0, 0] = 1.0
        P[1:, 1:] = frame
        np.matmul(P, (leg.matrices[1:] - np.eye(d + 1)) @ (P.T @ W[k]), out=W[k + 1 : end + 1])
        W[k + 1 : end + 1] += W[k]
        times[k + 1 : end + 1] = times[k] + leg.times[1:]
        np.multiply(leg.controls[:, :1], frame[:, 0], out=controls[k:end])
        for j in range(1, d):
            controls[k:end] += leg.controls[:, j, None] * frame[:, j]
        k = end
    return ConfigPath(times=times, grid=u0, nodes=_cone_images(W), controls=controls,
                      legs=[record for _, _, record in framed])


def step_consistency(path: ConfigPath) -> tuple:
    """(r, bound), both (m,): the L^2 distance r_k of a steer path's nodes[k+1]
    from the closed-form boost exp_h(h controls[k]) acting on nodes[k], and
    the bound it must stay under.

    The image of a node z under exp_h(h w), with c = cosh(h|w|),
    s = sinh(h|w|) and p = <w, z> / |w|, is
    (z + (s + (c - 1) p) w / |w|) / (c + s p); it is built node-major, a
    few steps at a time.  Every point of the sphere moves under a Lie-algebra
    element by at most its boost norm plus its rotation rate, and the
    quadrature weights sum to L, so r_k <= sqrt(L) (magnus_k + rounding_k):

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
    - rounding_k.  A node is the image of W = W0 + P (S - Id) P^T W0,
      W0 = (1, z0) at its leg's start (steer_config), with |S|_2 = e^rho the
      norm of the leg's block: rho is the boost leg's rapidity so far, and on a
      geodesic leg cosh rho = 1 + (1 - cos(freq s)) / freq^2
      <= 1 + T^2 / (2 pi^2).  S's closed forms err by 4 eps |S| and the three
      products sum at most n + 1 terms each, so
      |dW| <= (n + 8) eps sqrt(2) (1 + |S|).  The image W_x / |W_x| moves by
      |dW_x| / W_t, plus (n / 2 + 3) eps for its quotient and norm, where
      1 / W_t <= |S| (|W0| = sqrt(2) <= |S| |W|), and on a boost leg
      1 / W_t = cosh(tau) - sinh(tau) <w, z> / |w| is the node's own, tau
      into the leg.  The check's boost stretches node k's error, and node
      k+1's 1 / W_t, by at most e^{h|w|}, and its own sums add (n + 8) eps;
      so a node is off by at most
      (n + 8) eps ((1 + e^{h|w|}) (sqrt(2) (1 + |S|) / W_t + 1) + 1), and
      rounding_k is the L^2 norm of that over the nodes, divided by sqrt(L).
      A node near a boost's repelling point reads up to eps e^{2 rho}; one
      pushed towards its attracting point, a few eps.
    """
    h = np.diff(path.times)
    if sum(leg.steps for leg in path.legs) != len(h):
        raise ValueError("step_consistency needs a steer path, whose legs cover its steps")
    Z = path.nodes.swapaxes(-1, -2)  # (m+1, n, K)
    speed = _row_norms(path.controls)
    unit = path.controls / speed[:, None]
    hw = h * speed
    p = np.einsum("mi,mik->mk", unit, Z[:-1])
    c, s = np.cosh(hw)[:, None], np.sinh(hw)[:, None]
    coef, inv = s + (c - 1.0) * p, 1.0 / (c + s * p)
    # images of a few steps at a time, so the buffer stays in cache; it is
    # coordinate-major, as steer_config's nodes are
    chunk = max(1, _CHECK_CHUNK // Z[0].size)
    buf = np.empty((Z.shape[1], min(chunk, len(h)), Z.shape[2])).transpose(1, 0, 2)
    r2 = np.empty_like(p)
    for a in range(0, len(h), chunk):
        b = min(a + chunk, len(h))
        image = buf[: b - a]
        np.einsum("mi,mk->mik", unit[a:b], coef[a:b], out=image)
        image += Z[a:b]
        image *= inv[a:b, None]
        image -= Z[a + 1 : b + 1]
        np.einsum("mik,mik->mk", image, image, out=r2[a:b])
    r = np.sqrt(r2 @ path.grid.weights)

    # rounding per node: (n + 8) eps ((1 + e^{h|w|}) (sqrt(2) (1 + |S|) / W_t + 1) + 1)
    unit_err = (Z.shape[1] + 8) * np.finfo(float).eps
    bound, k = np.empty_like(h), 0
    for leg in path.legs:
        end = k + leg.steps
        hk, stretch = h[k:end], np.exp(hw[k:end])
        if leg.kind == "rotation":
            eta = abs(_vertical_parameter(leg.theta)[0])
            cosh_rho = 1.0 + leg.length**2 / (2.0 * np.pi**2)
            S = cosh_rho + np.sqrt(cosh_rho * cosh_rho - 1.0)  # 1 / W_t <= |S|
            magnus = hk**3 * (eta * eta / 24.0 + eta / 12.0) * (1.0 + (eta * hk) ** 2)
            bound[k:end] = magnus + unit_err * (
                (1.0 + stretch) * (np.sqrt(2.0) * (1.0 + S) * S + 1.0) + 1.0)
        else:
            # each node's own 1 / W_t = cosh(tau) - sinh(tau) <w, z> / |w|, tau
            # into the leg, stretched by e^{h|w|} to cover node k+1
            tau = path.times[k : end + 1, None] - path.times[k]
            inv_wt = stretch[:, None] * (np.cosh(tau[:-1]) - np.sinh(tau[:-1]) * p[k:end])
            node = (1.0 + stretch[:, None]) * (
                np.sqrt(2.0) * (1.0 + np.exp(tau[1:])) * inv_wt + 1.0) + 1.0
            bound[k:end] = unit_err * np.sqrt(node**2 @ path.grid.weights / path.grid.L)
        k = end
    return r, np.sqrt(path.grid.L) * bound


def _certifies(margin: float, delta: np.ndarray, floor: float) -> bool:
    """True when Weyl's inequality puts lambda_min(A0 + delta) above floor.

    margin is lambda_min of the symmetric A0 and delta a symmetric change:
    lambda_min(A0 + delta) >= margin - |delta|_2 >= margin - |delta|_F.
    """
    slack = margin - floor
    return slack > 0.0 and np.vdot(delta, delta) < slack * slack


def horizontal_lift(
    u0: SnakeConfig,
    head,
    head_dot,
    t_final: float = 1.0,
    dt: float = DEFAULT_LIFT_STEP,
) -> ConfigPath:
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
    certifies them, lambda_min(A) >= lambda_min(A_0) - |A - A_0|_F > 1e-3 L
    (A_0 the step-start matrix, plus an allowance for eigh's rounding); a
    stage the certificate cannot vouch for falls back to the exact
    eigen-solve and abort check, so an abort happens at the same stage as
    with an eigen-solve at every stage.  The returned path carries the
    step-start margins and the count of exact eigen-solves.
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

    def exact(t: float, A: np.ndarray, c_dot: np.ndarray) -> tuple:
        """(lambda_min(A), w) from one eigen-solve, aborting below margin_min."""
        nonlocal eigen_solves
        eigen_solves += 1
        vals, vecs = np.linalg.eigh(A)
        if vals[0] < margin_min:
            raise SingularityApproach(t, float(vals[0]))
        return vals[0], vecs @ ((vecs.T @ c_dot) / vals)

    def tangent(nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
        # sphere.tangent_at written as one matvec, for every RK4 stage of every step
        return w - (nodes @ w)[:, None] * nodes

    def stage(t: float, nodes: np.ndarray, c_dot: np.ndarray, A0: np.ndarray,
              margin0: float) -> np.ndarray:
        _, A = _gram(u0.weights, u0.L, nodes)
        if _certifies(margin0, A - A0, certified_min):
            w = np.linalg.solve(A, c_dot)
        else:
            _, w = exact(t, A, c_dot)
        return tangent(nodes, w)

    controls = np.empty((m, n))
    margins = np.empty(m)
    nodes = np.empty((m + 1,) + u0.nodes.shape)
    nodes[0] = u0.nodes
    # step 0's exact solve comes first, so a singular start aborts before
    # the head curve is checked
    _, A0 = _gram(u0.weights, u0.L, u0.nodes)
    margins[0], controls[0] = exact(0.0, A0, rate[0])
    if np.linalg.norm(heads[0] - endpoint(u0)) > max(1e-6, 1e-9 * u0.L):
        raise ValueError("head curve must start at endpoint(u0)")
    if np.linalg.norm(evaluate(head, np.linspace(0.0, t_final, 257)), axis=1).max() >= u0.L:
        raise ValueError("head target leaves the closed ball of radius L")
    for k, t in enumerate(times[:-1]):
        y = nodes[k]
        if k:
            _, A0 = _gram(u0.weights, u0.L, y)
            margins[k], controls[k] = exact(t, A0, rate[k])
        k1 = tangent(y, controls[k])
        k2 = stage(t + 0.5 * h, y + 0.5 * h * k1, rate_mid[k], A0, margins[k])
        k3 = stage(t + 0.5 * h, y + 0.5 * h * k2, rate_mid[k], A0, margins[k])
        k4 = stage(t + h, y + h * k3, rate_end[k], A0, margins[k])
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in k2
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= h / 6.0
        k2 += y
        np.divide(k2, np.linalg.norm(k2, axis=1)[:, None], out=nodes[k + 1])
    track = _row_norms(u0.weights @ nodes - heads)
    return ConfigPath(times=times, grid=u0, nodes=nodes, controls=controls,
                      tracking_errors=track, margins=margins, eigen_solves=eigen_solves)


def config_velocity_residuals(path: ConfigPath, subsample: int = 1) -> np.ndarray:
    """fit_horizontal residuals of centered finite-difference velocities.

    A diagnostic for the horizontality of a ConfigPath that does not reuse
    the recorded controls.
    """
    k = np.arange(1, len(path.nodes) - 1, subsample)
    u = sphere_point(path.nodes[k])
    dt = path.times[k + 1] - path.times[k - 1]
    v = tangent_at(u, (path.nodes[k + 1] - path.nodes[k - 1]) / dt[:, None, None])
    return fit_horizontal(path.grid, u, v).residual
