"""Horizontal path synthesis in SO0(n,1) and on snake configurations.

Group paths are sampled curves gamma with gamma(0) = Id whose step controls
are the right logarithmic derivatives Y = gamma' gamma^{-1}; a path is
horizontal when every Y lies in the boost subspace h.  New legs extend a
path by left multiplication (gamma -> leg * gamma), which preserves this
notion of horizontality and matches the way the factorization
A = prod_j Exp(theta_j B_j) * exp_h(u) is rebuilt leg by leg.  A leg acts
only on span(e0, u) or span(e0, x, y), so it is held in that frame of at
most 3 dimensions, and a path is its times, controls and legs.

Rotation endpoints are not reachable along h directly; each planar rotation
leg is a normal geodesic

    gamma(tau) = Exp(-tau * Omega) @ Exp(tau * (U + Omega)),

whose control Ad_{Exp(-tau Omega)} U stays in h with unit norm.  The leg
reaches Exp(theta * g) exactly once the elliptic frequency closes
(sqrt(eta^2 - 1) * T = 2 pi), at arc length T = sqrt(theta^2 + 4 pi theta).
The configuration-space planners push these paths through the sphere
action node-wise, steer_config one plan leg at a time in the leg's own
frame; their velocities tangent_at(nodes[k], controls[k]) are
then genuine horizontal fields, and steer_config checks every step against
the boost of its control.  steer_config and horizontal_lift return a
record with no node history; steer_history and lift_history return
(record, every node set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lorentz import (LieElement, _plane_indices, _positive, _row_norms, exp_h, factorize,
                      spatial_block)
from .rotations import _plane_generator, planar_rotation
from .snake import SnakeConfig, _gram, endpoint, fit_horizontal
from .sphere import _cone_images, mobius_sphere_action_many, sphere_point, tangent_at

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
_CHECK_CHUNK = 1 << 16  # the steer and lift node windows, in doubles


class SingularityApproach(RuntimeError):
    """Horizontal lift got too close to the singular set."""

    def __init__(self, time: float, margin: float):
        super().__init__(f"lambda_min(A_u) = {margin:.3e} at t = {time:.6f}")
        self.time = time
        self.margin = margin


@dataclass(frozen=True)
class LegRecord:
    """One leg of a group path, held in its own frame.

    The leg acts only on span(e0, F), F = [u/|u|] for a boost and [x, y]
    for a plane, so it is stored at that frame's dimension d <= 2: frame is
    P = diag(1, F), (n+1, d+1), and blocks are its matrices S, (s+1, d+1, d+1)
    in SO0(d,1); at dimension n the leg's matrix is Id + P (S - Id) P^T.
    """

    kind: str  # "boost" | "rotation"
    length: float
    steps: int
    frame: np.ndarray  # (n+1, d+1)
    blocks: np.ndarray  # (s+1, d+1, d+1)
    theta: float = 0.0
    u: np.ndarray | None = None

    @cached_property
    def end(self) -> np.ndarray:
        """The leg's last matrix at dimension n, formed once per leg."""
        P, S = self.frame, self.blocks[-1]
        return np.eye(len(P)) + P @ (S - np.eye(len(S))) @ P.T


@dataclass
class GroupPath:
    """Time-gridded horizontal path in SO0(n,1) with control records.

    controls[k] is the boost vector of the right logarithmic derivative at
    the midpoint of step k.  The matrices are held leg by leg in the legs'
    own frames (LegRecord), gamma(s) = leg(s - t_start) @ gamma(t_start).
    """

    times: np.ndarray  # (m+1,)
    controls: np.ndarray  # (m, n)
    legs: list = field(default_factory=list)

    def endpoint(self) -> np.ndarray:
        G = np.eye(self.controls.shape[1] + 1)
        for leg in self.legs:
            G = leg.end @ G
        return G

    def length(self) -> float:
        # cumsum adds left to right as a loop does, so the exported length is deterministic
        return float(np.cumsum(np.append(0.0, _row_norms(self.controls) * np.diff(self.times)))[-1])

    def leg_lengths(self) -> dict:
        out = {"boost": 0.0, "rotation": 0.0}
        for leg in self.legs:
            out[leg.kind] += leg.length
        return out

    def consistency_residual(self) -> float:
        """max_k || S_{k+1} - exp_h(dt F^T u_k) S_k ||, every leg's blocks S
        against its controls in its own frame F; O(dt^3) per step."""
        h, worst, k = np.diff(self.times), 0.0, 0
        for leg in self.legs:
            end = k + leg.steps
            local = h[k:end, None] * (self.controls[k:end] @ leg.frame[1:, 1:])
            steps = exp_h(local) @ leg.blocks[:-1]
            worst = max(worst, np.linalg.norm(steps - leg.blocks[1:], axis=(1, 2)).max())
            k = end
        return float(worst)


def _join(n: int, legs) -> GroupPath:
    """The path that runs every leg in turn: their times, controls and
    records concatenated once."""
    times, controls, records = [np.zeros(1)], [np.zeros((0, n))], []
    for leg in legs:
        times.append(times[-1][-1] + leg.times[1:])
        controls.append(leg.controls)
        records.extend(leg.legs)
    return GroupPath(times=np.concatenate(times), controls=np.concatenate(controls),
                     legs=records)


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
    return GroupPath(times=times, controls=np.tile(uh, (m, 1)), legs=[record])


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
    [x, y], with e1 and e2 for x and y; the controls are in R^n.
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
    taus = 0.5 * (times[:-1] + times[1:])
    controls = np.cos(taus * eta)[:, None] * x - np.sin(taus * eta)[:, None] * y
    record = LegRecord(kind="rotation", length=T, steps=m, theta=theta,
                       frame=spatial_block(np.stack([x, y], axis=1)), blocks=blocks)
    return GroupPath(times=times, controls=controls, legs=[record])


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
    ei = np.zeros(n)
    ei[i - 1] = s
    ej = np.zeros(n)
    ej[j - 1] = s
    base = [boost_leg(v, max_step=max_step) for v in (ej, ei, -ej, -ei)]
    # odd repetitions run the cycle reversed, (-ej, -ei, ej, ei): the path is
    # this period, repeated and cut to 4m legs.  Every leg has the time grid
    # tau, and the leg offsets are _join's left-to-right sums of its end.
    period, reps = (base + base[2:] + base[:2])[: 4 * m], (m + 1) // 2
    tau = base[0].times
    offsets = np.concatenate([[0.0], np.cumsum(np.full(4 * m - 1, tau[-1]))])
    times = np.concatenate([[0.0], (offsets[:, None] + tau[1:]).ravel()])
    controls = np.tile(np.concatenate([leg.controls for leg in period]), (reps, 1))
    return GroupPath(times=times, controls=controls[: 4 * m * (len(tau) - 1)],
                     legs=([leg.legs[0] for leg in period] * reps)[: 4 * m])


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
    per step the control and the step check's residual and bound
    (_consistency), the node sets at every sample_every-th time and the
    final configuration.  steer_history gives the nodes as well."""

    times: np.ndarray  # (m+1,)
    grid: SnakeConfig  # the start configuration
    controls: np.ndarray  # (m, n): boost vector w per step
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
    checking every step as it goes.

    The path's times, controls and legs are the plan's.  Each leg moves the
    nodes z reached at its start, as light-cone points W0 = (1, z)^T, to
    W = W0 + P (S - Id) P^T W0 with P its frame and S its blocks (LegRecord):
    O(n K) per step.  They differ from the action of the plan's matrices at
    dimension n by rounding.

    The light-cone node sets pass through a window of at most _CHECK_CHUNK
    doubles (two node sets if one is larger).  When it fills, its node sets
    become sphere points, the step check's residuals are taken between them
    (_check_steps), their head rows and every (m+1) // 32-th of them are
    recorded, and the last one moves to the front.  So a steer holds
    O(m (n + K)) plus one workspace, and returns a SteerPath with no node
    history.
    """
    return _steer(u0, A, max_step, _CHECK_CHUNK)[0]


def steer_history(u0: SnakeConfig, A: np.ndarray, max_step: float = DEFAULT_MAX_STEP) -> tuple:
    """(record, nodes): steer_config's SteerPath and every node set of the
    steer, (m+1, K, n), from the same walk with a window that holds them all.
    The nodes are a view of the spatial rows of a coordinate-major
    (n+1, m+1, K) array."""
    return _steer(u0, A, max_step, None)


def _steer(u0: SnakeConfig, A: np.ndarray, max_step: float, doubles) -> tuple:
    """steer_config with a window of at most `doubles` doubles of light-cone
    node sets (two at least; every one when None): (record, the window's
    node sets in use at the end).

    The window is coordinate-major, (n+1, rows, K) in memory, as one array of
    every node set would be, so each pass over it runs along rows of K values
    and its node sets are those of such an array bit for bit.  It, the leg's
    start point, the step check's rows and its scratch for one pass over a full
    window (rows - 1 steps) are carved from one allocation per call.
    """
    A = np.asarray(A, dtype=float)
    if u0.dim != A.shape[0] - 1:
        raise ValueError("dimension mismatch between config and matrix")
    plan = plan_group_path(A, max_step=max_step)
    n, K, m = u0.dim, u0.nodes.shape[0], len(plan.controls)
    cone = (n + 1) * K
    rows = m + 1 if doubles is None else min(m + 1, max(2, doubles // cone))
    # one allocation per call: with separate arrays of this size the allocator
    # trims the heap between calls and the next call faults the pages back in
    rest = cone * (rows + 1)  # the window and the leg's start point, then p, r2 and scratch
    space = np.empty(rest + (2 * m + (n + 2) * (rows - 1)) * K)
    window = space[: cone * rows].reshape(n + 1, rows, K).transpose(1, 0, 2)
    start = space[cone * rows : rest].reshape(n + 1, K)
    p, r2 = space[rest : rest + 2 * m * K].reshape(2, m, K)
    # the check's images (rows - 1, n, K), coordinate-major as the window is,
    # and its node-wise coefficients and quotients (rows - 1, K)
    check = space[rest + 2 * m * K :].reshape(n + 2, rows - 1, K)
    scratch = check[:n].transpose(1, 0, 2), check[n], check[n + 1]
    nodes = window[:, 1:].swapaxes(1, 2)  # (rows, K, n)

    h, speed = np.diff(plan.times), _row_norms(plan.controls)
    hw = h * speed
    head_trace = np.empty((m + 1, n))
    every = max(1, (m + 1) // 32)
    samples = np.empty((len(range(0, m + 1, every)), n, K))

    def flush() -> None:
        """Window rows 0..j, node sets a..k: their sphere points (row 0 is one
        already after the first window), the steps between them checked, and
        their head rows and samples recorded.  Row j moves to the front of the
        next window, which records it again with the same bits."""
        a = k - j
        _cone_images(window[int(a > 0) : j + 1])
        _check_steps(window[: j + 1, 1:], a, plan.controls, speed, hw, p, r2, scratch)
        np.matmul(u0.weights, nodes[: j + 1], out=head_trace[a : k + 1])
        first = -a % every  # the window row of the first sampled node set
        picked = window[first : j + 1 : every, 1:]
        i = (a + first) // every
        samples[i : i + len(picked)] = picked

    window[0, 0] = 1.0
    window[0, 1:] = u0.nodes.T
    k = j = 0  # the step of window row j
    for leg in plan.legs:
        if k:  # the leg starts on the light cone at (1, z), z the node reached
            _cone_images(window[j : j + 1])
            window[j, 0] = 1.0
        start[...] = window[j]
        P, S, s = leg.frame, leg.blocks, 0
        PtW, eye = P.T @ start, np.eye(S.shape[-1])
        while s < leg.steps:
            if j == rows - 1:  # the window is full
                flush()
                window[0] = window[j]
                j = 0
            c = min(leg.steps - s, rows - 1 - j)
            out = window[j + 1 : j + c + 1]
            np.matmul(P, (S[s + 1 : s + c + 1] - eye) @ PtW, out=out)
            out += start
            j, k, s = j + c, k + c, s + c
    flush()
    residuals, bounds = _consistency(plan.times, plan.legs, u0, h, hw, p, r2)
    record = SteerPath(times=plan.times, grid=u0, controls=plan.controls, legs=plan.legs,
                       head_trace=head_trace, final=_on_grid(u0, nodes[j]), residuals=residuals,
                       bounds=bounds, sample_every=every, samples=samples.swapaxes(1, 2))
    return record, nodes[: j + 1]


def _check_steps(Z: np.ndarray, a: int, controls, speed, hw, p, r2, scratch) -> None:
    """The step check's node-wise part for the node sets a.. of a steer,
    Z (s+1, n, K), in one pass: writes the s steps' p = <w, z> / |w| and
    squared node distances into rows a..a+s-1 of p and r2, with w / |w| formed
    from the controls and speeds.  scratch, its images (s', n, K) and its
    coefficients and quotients (s', K), holds s' >= s steps."""
    rows, z, z_next = slice(a, a + len(Z) - 1), Z[:-1], Z[1:]
    image, coef, inv = (buf[: len(z)] for buf in scratch)
    unit = controls[rows] / speed[rows, None]
    np.einsum("mi,mik->mk", unit, z, out=p[rows])
    c, s = np.cosh(hw[rows])[:, None], np.sinh(hw[rows])[:, None]
    # coef = s + (c - 1) p and inv = 1 / (c + s p)
    np.multiply(c - 1.0, p[rows], out=coef)
    coef += s
    np.multiply(s, p[rows], out=inv)
    inv += c
    np.divide(1.0, inv, out=inv)
    np.einsum("mi,mk->mik", unit, coef, out=image)
    image += z
    image *= inv[:, None]
    image -= z_next
    np.einsum("mik,mik->mk", image, image, out=r2[rows])


def _consistency(times, legs, grid: SnakeConfig, h, hw, p, r2) -> tuple:
    """(r, bound), both (m,): the L^2 distance r_k of a steer's node set k+1
    from the closed-form boost exp_h(h controls[k]) acting on node set k, and
    the bound it must stay under, from every step's p and r2 rows
    (_check_steps).

    The image of a node z under exp_h(h w), with c = cosh(h|w|),
    s = sinh(h|w|) and p = <w, z> / |w|, is
    (z + (s + (c - 1) p) w / |w|) / (c + s p); it is built node-major, one
    window of steps at a time.  Every point of the sphere moves under a Lie-algebra
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
    r = np.sqrt(r2 @ grid.weights)
    # rounding per node: (n + 8) eps ((1 + e^{h|w|}) (sqrt(2) (1 + |S|) / W_t + 1) + 1)
    unit_err = (grid.dim + 8) * np.finfo(float).eps
    bound, k = np.empty_like(h), 0
    for leg in legs:
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
            tau = times[k : end + 1, None] - times[k]
            inv_wt = stretch[:, None] * (np.cosh(tau[:-1]) - np.sinh(tau[:-1]) * p[k:end])
            node = (1.0 + stretch[:, None]) * (
                np.sqrt(2.0) * (1.0 + np.exp(tau[1:])) * inv_wt + 1.0) + 1.0
            bound[k:end] = unit_err * np.sqrt(node**2 @ grid.weights / grid.L)
        k = end
    return r, np.sqrt(grid.L) * bound


def horizontal_lift(
    u0: SnakeConfig,
    head,
    head_dot,
    t_final: float = 1.0,
    dt: float = DEFAULT_LIFT_STEP,
) -> LiftPath:
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

    The nodes pass through a window of at most _CHECK_CHUNK doubles (two
    node sets if one is larger): when it fills, its head rows are recorded
    and its last node set moves to the front.  So a lift holds O(m n) plus
    one window, and returns a LiftPath with no node history.
    """
    return _lift(u0, head, head_dot, t_final, dt, _CHECK_CHUNK)[0]


def lift_history(
    u0: SnakeConfig,
    head,
    head_dot,
    t_final: float = 1.0,
    dt: float = DEFAULT_LIFT_STEP,
) -> tuple:
    """(record, nodes): horizontal_lift's LiftPath and every node set of the
    lift, (m+1, K, n), from the same loop with a window that holds them all."""
    return _lift(u0, head, head_dot, t_final, dt, None)


def _lift(u0: SnakeConfig, head, head_dot, t_final: float, dt: float, doubles) -> tuple:
    """horizontal_lift with a node window of at most `doubles` doubles (two
    node sets at least; every one when None): (record, the window's node
    sets in use at the end).

    A step writes its stage arrays into buffers allocated once per lift,
    with the arithmetic of the plain expressions, so the bits are theirs;
    the returned arrays are the record's own.
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

    def exact(t: float, A: np.ndarray, c_dot: np.ndarray) -> tuple:
        """(lambda_min(A), w) from one eigen-solve, aborting below margin_min."""
        nonlocal eigen_solves
        eigen_solves += 1
        vals, vecs = eigh(A)
        if vals[0] < margin_min:
            raise SingularityApproach(t, float(vals[0]))
        return vals[0], vecs @ ((vecs.T @ c_dot) / vals)

    # every array a step writes, allocated once per lift: the Gram buffers,
    # A - A0, the stage point, the four slopes and the node-wise dots and norms.
    # The weights are repeated along each node, so weighting a node set is a
    # flat product rather than a broadcast one; Gamma_u and A_u are formed as
    # snake._gram forms them.
    weights, scaled_id = u0.weights[:, None].repeat(n, axis=1), u0.L * np.eye(n)
    weighted, point, k1, k2, k3, k4 = (np.empty_like(u0.nodes) for _ in range(6))
    G, A, delta = (np.empty((n, n)) for _ in range(3))
    dots, norms = np.empty(len(u0.nodes)), np.empty(len(u0.nodes))
    dots_col, norms_col = dots[:, None], norms[:, None]
    half, sixth = 0.5 * h, h / 6.0
    # the three later stages: step, previous slope, slope, head rates
    stages = ((half, k1, k2, rate_mid), (half, k2, k3, rate_mid), (h, k3, k4, rate_end))

    controls = np.empty((m, n))
    margins = np.empty(m)
    head_trace = np.empty((m + 1, n))
    rows = m + 1 if doubles is None else min(m + 1, max(2, doubles // u0.nodes.size))
    window = np.empty((rows,) + u0.nodes.shape)
    window[0] = u0.nodes
    # step 0's exact solve comes first, so a singular start aborts before
    # the head curve is checked
    _, A0 = _gram(u0.weights, u0.L, u0.nodes)
    margins[0], controls[0] = exact(0.0, A0, rate[0])
    if np.linalg.norm(heads[0] - endpoint(u0)) > max(1e-6, 1e-9 * u0.L):
        raise ValueError("head curve must start at endpoint(u0)")
    if np.linalg.norm(evaluate(head, np.linspace(0.0, t_final, 257)), axis=1).max() >= u0.L:
        raise ValueError("head target leaves the closed ball of radius L")
    j = 0  # the window row of the step's start nodes
    for k in range(m):
        if j == rows - 1:  # the window is full
            head_trace[k - j : k] = u0.weights @ window[:-1]
            window[0] = window[-1]
            j = 0
        y, y_next, w0, t = window[j], window[j + 1], controls[k], times[k]
        if k:
            np.matmul(np.multiply(y, weights, out=weighted).swapaxes(-1, -2), y, out=G)
            np.subtract(scaled_id, G, out=A0)
            margins[k], w0[:] = exact(t, A0, rate[k])
        # Weyl's certificate for the stage matrices A: |A - A0|_F < slack
        slack = margins[k] - certified_min
        # the slopes w - <w, y> y, sphere.tangent_at written in place
        np.matmul(y, w0, out=dots)
        np.subtract(w0, np.multiply(dots_col, y, out=k1), out=k1)
        for s, prev, slope, stage_rate in stages:
            np.add(y, np.multiply(prev, s, out=point), out=point)
            np.matmul(np.multiply(point, weights, out=weighted).swapaxes(-1, -2), point, out=G)
            np.subtract(scaled_id, G, out=A)
            np.subtract(A, A0, out=delta)
            if slack > 0.0 and np.vdot(delta, delta) < slack * slack:
                w = solve(A, stage_rate[k])
            else:
                _, w = exact(t + s, A, stage_rate[k])
            np.matmul(point, w, out=dots)
            np.subtract(w, np.multiply(dots_col, point, out=slope), out=slope)
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in k2, over its row
        # norms, formed as np.linalg.norm forms them
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= sixth
        k2 += y
        np.add.reduce(np.multiply(k2, k2, out=point), axis=1, out=norms)
        np.sqrt(norms, out=norms)
        np.divide(k2, norms_col, out=y_next)
        j += 1
    head_trace[m - j :] = u0.weights @ window[: j + 1]
    record = LiftPath(times=times, grid=u0, controls=controls, head_trace=head_trace,
                      final=_on_grid(u0, window[j]), tracking_errors=_row_norms(head_trace - heads),
                      margins=margins, eigen_solves=eigen_solves)
    return record, window[: j + 1]


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
