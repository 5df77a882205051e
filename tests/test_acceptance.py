"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a [ACCEPTANCE] PASS/FAIL line.  Two clauses of criterion 9
assert a rotation-reaching path of arc length |theta|; a rotation is a
vertical displacement for the boost distribution and the attainable minimum
is sqrt(theta^2 + 4*pi*theta), so those clauses are strict expected
failures: the assertions run at full strength and fail for the measured
lengths (see the repository notes for the lower-bound argument).
"""

import time

import numpy as np
import pytest

from snakeplan.generate import (
    random_config,
    random_skew,
    random_so0,
    straight_config,
)
from snakeplan.lorentz import (
    LieElement,
    basis_Omega,
    boost_decompose,
    exp_h,
    factorize,
    kak_decompose,
    lorentz_residual,
)
from snakeplan.planner import (
    act,
    commutator_probe,
    config_velocity_residuals,
    horizontal_lift,
    plan_group_path,
    steer_history,
    su11_geodesic,
)
from snakeplan.rotations import so_exp_blocks, so_log
from snakeplan.snake import (
    _gram,
    config_distance,
    critical_radii,
    endpoint,
    is_singular,
)
from snakeplan.sphere import (
    bracket_rotation_flow,
    mobius_sphere_action_many,
    tangent_at,
    xi_bracket,
    xi_field,
)
from conftest import series_expm


def report(num, text, value, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} {status}: {text} ({value})")


def unit(v):
    return v / np.linalg.norm(v)


def block_rot(R):
    P = np.eye(R.shape[0] + 1)
    P[1:, 1:] = R
    return P


def test_criterion_01_membership_and_decompositions():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_mem, worst_boost, worst_kak = 0.0, 0.0, 0.0
    for k in range(200):
        n = 2 + k % 7
        A = random_so0(rng, n)
        worst_mem = max(worst_mem, lorentz_residual(A))
        eps, Q, T = boost_decompose(A)
        P = np.eye(n + 1)
        P[0, 0] = eps
        P[1:, 1:] = Q
        worst_boost = max(worst_boost, np.linalg.norm(P @ T - A))
        Qp, alpha, Qv = kak_decompose(A)
        axis = np.eye(n + 1)
        axis[0, 0] = axis[1, 1] = np.cosh(alpha)
        axis[0, 1] = axis[1, 0] = np.sinh(alpha)
        recon = block_rot(Qp) @ axis @ block_rot(Qv).T
        worst_kak = max(worst_kak, np.linalg.norm(recon - A))
    elapsed = time.perf_counter() - t0
    ok = worst_mem <= 1e-10 and worst_boost <= 1e-9 and worst_kak <= 1e-9 and elapsed < 5.0
    report(1, "membership/boost/kak on 200 random SO0(n,1), n=2..8",
           f"mem={worst_mem:.2e} boost={worst_boost:.2e} kak={worst_kak:.2e} t={elapsed:.2f}s", ok)
    assert worst_mem <= 1e-10
    assert worst_boost <= 1e-9
    assert worst_kak <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_closed_form_exponential():
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(100):
        n = 2 + k % 7
        u = rng.normal(size=n)
        u *= rng.uniform(0.0, 5.0) / np.linalg.norm(u)
        worst = max(worst, np.linalg.norm(exp_h(u) - series_expm(LieElement(u=u).matrix())))
    ok = worst <= 1e-12
    report(2, "exp_h vs series exponential, 100 draws |u|<=5", f"{worst:.2e}", ok)
    assert worst <= 1e-12


def test_criterion_03_so_logarithm():
    rng = np.random.default_rng(3)
    worst_rt, worst_comm, worst_cubic = 0.0, 0.0, 0.0
    for k in range(100):
        n = 2 + k % 9
        Q = series_expm(random_skew(rng, n, scale=4.0))
        B, blocks = so_log(Q)
        worst_rt = max(worst_rt, np.linalg.norm(so_exp_blocks(blocks) - Q))
        for a in blocks.blocks:
            worst_cubic = max(worst_cubic, np.linalg.norm(
                a.generator @ a.generator @ a.generator + a.generator))
            for b in blocks.blocks:
                if a is not b:
                    worst_comm = max(worst_comm, np.linalg.norm(
                        a.generator @ b.generator - b.generator @ a.generator))
    ok = worst_rt <= 1e-9 and worst_comm <= 1e-10 and worst_cubic <= 1e-10
    report(3, "so_log/so_exp roundtrip on 100 random SO(n), n<=10",
           f"rt={worst_rt:.2e} comm={worst_comm:.2e} cubic={worst_cubic:.2e}", ok)
    assert worst_rt <= 1e-9
    assert worst_comm <= 1e-10
    assert worst_cubic <= 1e-10


def test_criterion_04_global_factorization():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        A = random_so0(rng, 8)
        blocks, u = factorize(A)
        R = block_rot(so_exp_blocks(blocks))
        worst = max(worst, np.linalg.norm(R @ exp_h(u) - A))
    ok = worst <= 1e-8
    report(4, "product factorization of 100 random SO0(8,1)", f"{worst:.2e}", ok)
    assert worst <= 1e-8


def test_criterion_05_gradient_flow_dictionary():
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(20):
        n = 2 + k % 5
        v = rng.normal(size=n)
        z = unit(rng.normal(size=n))
        h = 1e-3
        y = z.copy()

        def f(p):
            return tangent_at(unit(p), v)

        for _ in range(1000):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            y = unit(y)
        target = mobius_sphere_action_many(exp_h(v), z[None])[0]
        worst = max(worst, np.linalg.norm(y - target))
    ok = worst <= 1e-6
    report(5, "gradient flow (RK4, h=1e-3, t in [0,1]) vs light-cone boost action, 20 draws",
           f"{worst:.2e}", ok)
    assert worst <= 1e-6


def test_criterion_06_bracket_rotation():
    rng = np.random.default_rng(6)
    # (a) finite-difference Lie bracket of the xi fields
    worst_fd = 0.0
    n = 5
    eps = 1e-5

    def xi(k, p):
        out = -p[k - 1] * p
        out[k - 1] += 1.0
        return out

    for _ in range(20):
        z = unit(rng.normal(size=n))
        i, j = 1 + rng.integers(0, n), 1 + rng.integers(0, n)
        if i == j:
            continue

        def dfield(k, p, h):
            return (xi(k, p + eps * h) - xi(k, p - eps * h)) / (2 * eps)

        fd = dfield(j, z, xi(i, z)) - dfield(i, z, xi(j, z))
        worst_fd = max(worst_fd, np.linalg.norm(fd - xi_bracket(i, j, z)))

    # (b) commutator of flows vs bracket rotation, slope -2 +- 0.3.
    # An oblique pair keeps the measurement in the regime the window
    # describes; for orthonormal pairs the cubic term cancels and the decay
    # is one order faster (checked separately below).
    def flow(d, s, p):
        return mobius_sphere_action_many(exp_h(s * unit(d)), p[None])[0]

    def cycle(v, w, s, p):
        return flow(v, s, flow(w, s, flow(v, -s, flow(w, -s, p))))

    p0 = unit(np.array([1.0, 0.2, -0.3, 0.1]))
    q0 = unit(np.array([0.1, 0.3, 0.9, -0.2]))
    v = p0
    w = np.cos(np.pi / 6) * p0 + np.sin(np.pi / 6) * unit(q0 - (q0 @ p0) * p0)
    z = unit(np.array([0.3, -0.5, 0.2, 0.8]))
    ss = np.array([0.08, 0.04, 0.02, 0.01])
    errs = np.array([
        np.linalg.norm(cycle(v, w, s, z) - bracket_rotation_flow(v, w, s * s, z))
        for s in ss
    ])
    slope = float(np.polyfit(np.log(ss), np.log(errs), 1)[0])

    # orthonormal pair: still converges, at least second order
    w_on = unit(q0 - (q0 @ p0) * p0)
    errs_on = np.array([
        np.linalg.norm(cycle(v, w_on, s, z) - bracket_rotation_flow(v, w_on, s * s, z))
        for s in ss
    ])
    slope_on = float(np.polyfit(np.log(ss), np.log(errs_on), 1)[0])

    ok = worst_fd <= 1e-6 and abs(slope - 2.0) <= 0.3 and slope_on >= 1.7
    report(6, "xi-bracket FD match and flow-commutator second-order convergence",
           f"fd={worst_fd:.2e} slope={-slope:.2f} orthonormal_slope={-slope_on:.2f}", ok)
    assert worst_fd <= 1e-6
    assert abs(slope - 2.0) <= 0.3
    assert slope_on >= 1.7 and errs_on[-1] < errs_on[0]


def test_criterion_07_infinitesimal_action_identities():
    rng = np.random.default_rng(7)
    n = 4
    cfg = random_config(rng, n, segments=3)
    eps = 1e-5
    worst_u, worst_om = 0.0, 0.0
    for i in range(1, n + 1):
        Ap = exp_h(eps * np.eye(n)[i - 1])
        Am = exp_h(-eps * np.eye(n)[i - 1])
        fd = (act(Ap, cfg).nodes - act(Am, cfg).nodes) / (2 * eps)
        worst_u = max(worst_u, np.max(np.linalg.norm(fd - xi_field(i, cfg.nodes), axis=1)))
    for i, j in ((1, 2), (2, 4), (1, 3)):
        G = basis_Omega(i, j, n).matrix()
        Rp = series_expm(eps * G)
        Rm = series_expm(-eps * G)
        fd = (act(Rp, cfg).nodes - act(Rm, cfg).nodes) / (2 * eps)
        # -[E_i, E_j] evaluated pointwise: u_j e_i - u_i e_j at every node
        minus_bracket = np.zeros_like(cfg.nodes)
        minus_bracket[:, i - 1] = cfg.nodes[:, j - 1]
        minus_bracket[:, j - 1] = -cfg.nodes[:, i - 1]
        worst_om = max(worst_om, np.max(np.linalg.norm(fd - minus_bracket, axis=1)))
    ok = worst_u <= 1e-6 and worst_om <= 1e-6
    report(7, "a(U_i)=E_i and a(Omega_ij)=-[E_i,E_j] by finite differences, n=4",
           f"U={worst_u:.2e} Omega={worst_om:.2e}", ok)
    assert worst_u <= 1e-6
    assert worst_om <= 1e-6


def test_criterion_08_singularity_test():
    rng = np.random.default_rng(8)
    straight = straight_config(3)
    lam_min = np.linalg.eigh(_gram(straight.weights, straight.L, straight.nodes)[1])[0][0]
    assert lam_min <= 1e-12

    disagreements = 0
    configs = [random_config(rng, 3, segments=2) for _ in range(90)]
    configs += [straight_config(3, flips=flips) for flips in ((), (1,), (0,), (0, 1))]
    configs += [random_config(rng, 4) for _ in range(6)]
    for cfg in configs:
        svals = np.linalg.svd(cfg.nodes, compute_uv=False)
        rank_one = svals[1] <= 1e-8 * svals[0]
        flag, _ = is_singular(cfg)  # lambda_min(A_u) <= 1e-8 L
        if flag != rank_one:
            disagreements += 1

    radii = critical_radii([0.0, 1.0, 3.0])
    radii_ok = radii.shape == (2,) and np.allclose(radii, [1.0, 3.0])
    ok = disagreements == 0 and radii_ok
    report(8, "singular iff rank-one node set (100 configs); critical radii of {0,1,3}",
           f"lam_min={lam_min:.1e} disagreements={disagreements} radii={radii.tolist()}", ok)
    assert disagreements == 0
    assert radii_ok


def _rotation_angle(G):
    return float(np.arctan2(G[2, 1], G[1, 1]))


THETAS = (0.1, 0.5, 1.0, 2.0, 3.0, np.pi)


def test_criterion_09_geodesic_endpoints_and_boost_ledger():
    worst_angle = 0.0
    for theta in THETAS:
        path = su11_geodesic(theta)
        ang = _rotation_angle(path.endpoint())
        worst_angle = max(worst_angle, abs((ang - theta + np.pi) % (2 * np.pi) - np.pi))
    rng = np.random.default_rng(9)
    A = random_so0(rng, 4)
    _, u = factorize(A)
    path = plan_group_path(A)
    boost_gap = abs(path.leg_lengths()["boost"] - np.linalg.norm(u))
    ok = worst_angle <= 1e-8 and boost_gap <= 1e-6
    report(9, "geodesic endpoint angles and boost-leg ledger",
           f"angle={worst_angle:.2e} boost_gap={boost_gap:.2e}", ok)
    assert worst_angle <= 1e-8
    assert boost_gap <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="no horizontal path of length |theta| reaches a rotation by theta: "
    "rotations are vertical for the boost distribution and any horizontal "
    "path needs length >= sqrt(theta^2 + 4*pi*theta) (isoperimetric lower "
    "bound; the normal-geodesic family attains it exactly)",
)
def test_criterion_09_geodesic_length_equals_theta():
    worst = 0.0
    for theta in THETAS:
        path = su11_geodesic(theta)
        worst = max(worst, abs(path.length() - abs(theta)))
    report(9, "geodesic length equals |theta|", f"gap={worst:.2e}", worst <= 1e-6)
    assert worst <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="rotation legs cannot have length |theta| (see the length xfail); "
    "the ledger records the attainable sqrt(theta^2+4*pi*theta) per plane",
)
def test_criterion_09_rotation_ledger_equals_angle_sum():
    rng = np.random.default_rng(90)
    A = random_so0(rng, 4)
    blocks, _ = factorize(A)
    path = plan_group_path(A)
    angle_sum = sum(len(b.planes) * b.theta for b in blocks.blocks)
    gap = abs(path.leg_lengths()["rotation"] - angle_sum)
    report(9, "rotation ledger equals per-plane angle sum", f"gap={gap:.2e}", gap <= 1e-6)
    assert gap <= 1e-6


def test_criterion_10_orbit_steering():
    # each step is the boost of its recorded control within its derived bound
    # (the steer record's residuals and bounds); the nodes' own central-difference velocities are
    # horizontal up to an error that falls with the step: second order inside a
    # leg, first order where a difference straddles two legs' controls
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst_final, worst_step, worst_fd_ratio = 0.0, 0.0, 0.0
    for k in range(20):
        n = 2 + k % 5
        u0 = random_config(rng, n)
        A = random_so0(rng, n)
        path, nodes = steer_history(u0, A, max_step=0.05)
        worst_final = max(worst_final, config_distance(path.final, act(A, u0)))
        r, bound = path.residuals, path.bounds
        worst_step = max(worst_step, float((r / bound).max()))
        fd = config_velocity_residuals(path, nodes).max()
        fd_half = config_velocity_residuals(*steer_history(u0, A, max_step=0.025)).max()
        worst_fd_ratio = max(worst_fd_ratio, fd_half / fd)
    elapsed = time.perf_counter() - t0
    ok = worst_final <= 1e-7 and worst_step <= 1.0 and worst_fd_ratio < 0.75 and elapsed < 30.0
    report(10, "orbit steering: 20 random (A, u0), n<=6",
           f"final={worst_final:.2e} step/bound={worst_step:.2f} "
           f"fd(h/2)/fd(h)={worst_fd_ratio:.2f} t={elapsed:.1f}s", ok)
    assert worst_final <= 1e-7
    assert worst_step <= 1.0
    assert worst_fd_ratio < 0.75
    assert elapsed < 30.0


def test_criterion_11_optimal_control_lift():
    rng = np.random.default_rng(11)
    cfg = random_config(rng, 3, L=2.0)
    c0 = endpoint(cfg)
    d = np.zeros(3)
    d[0] = 0.1 * cfg.L
    straight = horizontal_lift(cfg, lambda t: c0 + np.multiply.outer(t, d),
                               lambda t: np.tile(d, (len(t), 1)), t_final=1.0, dt=1e-3)
    track = float(straight.tracking_errors.max())

    # self-convergence on a curved head path, coarse steps so the gaps are
    # above float resolution
    from snakeplan.snake import SnakeConfig

    flat = SnakeConfig.from_directions(
        2.0, [0.0, 1.0, 2.0],
        lambda s: np.array([np.cos(0.6 * s - 0.5), np.sin(0.6 * s - 0.5)]),
        dim=2,
    )
    c0f = endpoint(flat)
    r = 0.15

    def head(t):
        return c0f + r * np.stack([np.cos(2 * np.pi * t) - 1.0, np.sin(2 * np.pi * t)], axis=-1)

    def head_dot(t):
        return 2 * np.pi * r * np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=-1)

    finals = {}
    for dt in (0.02, 0.01, 0.005):
        finals[dt] = horizontal_lift(flat, head, head_dot, t_final=1.0, dt=dt).final.nodes
    d1 = np.abs(finals[0.02] - finals[0.01]).max()
    d2 = np.abs(finals[0.01] - finals[0.005]).max()
    order = float(np.log2(d1 / d2))

    loop = horizontal_lift(flat, head, head_dot, t_final=1.0, dt=1e-3)
    head_return = float(np.linalg.norm(loop.head_trace[-1] - c0f))
    holonomy = config_distance(loop.final, flat)

    ok = track <= 1e-4 and order >= 2.0 and head_return <= 1e-4 and holonomy > 1e-3
    report(11, "lift: tracking, self-convergence order, loop holonomy",
           f"track={track:.2e} order={order:.2f} return={head_return:.2e} "
           f"holonomy={holonomy:.2e}", ok)
    assert track <= 1e-4
    assert order >= 2.0
    assert head_return <= 1e-4
    assert holonomy > 1e-3


def test_criterion_12_density_probe():
    ms = np.array([8, 16, 32, 64])
    t, n = 0.5, 3
    target = series_expm(t * basis_Omega(1, 2, n).matrix())
    errs = np.array([
        np.linalg.norm(commutator_probe(1, 2, t, int(m), n).endpoint() - target)
        for m in ms
    ])
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    ok = abs(slope + 1.0) <= 0.2
    report(12, "commutator probe endpoint error decay over m=8..64",
           f"slope={slope:.3f} errs={np.array2string(errs, precision=2)}", ok)
    assert abs(slope + 1.0) <= 0.2
