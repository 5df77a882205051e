import numpy as np
import pytest

from snakeplan.generate import random_config, random_so0, straight_config
from snakeplan.lorentz import LieElement, basis_Omega, basis_U, exp_h
from snakeplan.planner import (
    SingularityApproach,
    act,
    action_velocity,
    boost_leg,
    commutator_probe,
    config_velocity_residuals,
    horizontal_lift,
    infinitesimal_action,
    plan_group_path,
    rotation_leg,
    steer_config,
    su11_geodesic,
)
from snakeplan.snake import (
    config_distance,
    endpoint,
    e_field,
    fit_horizontal,
    horizontal_gradient,
    l2_norm,
    project_tangent,
)
from snakeplan.sphere import mobius_sphere_action_many


def rot_matrix(theta, n=2):
    A = np.eye(n + 1)
    A[1, 1] = A[2, 2] = np.cos(theta)
    A[1, 2] = -np.sin(theta)
    A[2, 1] = np.sin(theta)
    return A


def block_rot(R):
    n = R.shape[0]
    P = np.eye(n + 1)
    P[1:, 1:] = R
    return P


class TestBoostLeg:
    def test_endpoint_and_length(self, rng):
        u = rng.normal(size=4)
        path = boost_leg(u)
        assert np.linalg.norm(path.endpoint() - exp_h(u)) < 1e-12
        assert path.length() == pytest.approx(np.linalg.norm(u), abs=1e-12)
        assert path.leg_lengths()["boost"] == pytest.approx(np.linalg.norm(u))

    def test_horizontality_exact(self, rng):
        path = boost_leg(rng.normal(size=3))
        assert path.horizontality_residual() == 0.0

    def test_consistency(self, rng):
        path = boost_leg(rng.normal(size=3), max_step=0.01)
        assert path.consistency_residual() < 1e-6

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            boost_leg(np.zeros(3))


class TestSu11Geodesic:
    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 2.0, 3.0, np.pi])
    def test_endpoint_exact(self, theta):
        path = su11_geodesic(theta)
        assert np.linalg.norm(path.endpoint() - rot_matrix(theta)) < 1e-10

    def test_negative_angle(self):
        path = su11_geodesic(-0.8)
        assert np.linalg.norm(path.endpoint() - rot_matrix(-0.8)) < 1e-12

    def test_length_is_normal_geodesic_value(self):
        # sqrt(theta^2 + 4 pi theta): the minimum over the ansatz family
        for theta in (0.1, 1.0, np.pi):
            path = su11_geodesic(theta)
            assert path.length() == pytest.approx(
                np.sqrt(theta * (theta + 4 * np.pi)), rel=1e-10
            )

    def test_horizontality_and_unit_speed(self):
        path = su11_geodesic(1.3)
        assert path.horizontality_residual() == 0.0
        speeds = np.linalg.norm(path.controls, axis=1)
        assert np.allclose(speeds, 1.0, atol=1e-12)

    def test_consistency(self):
        path = su11_geodesic(2.0, max_step=0.01)
        assert path.consistency_residual() < 1e-5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            su11_geodesic(3.5)
        with pytest.raises(ValueError):
            su11_geodesic(0.0)


class TestRotationLeg:
    def test_endpoint_is_omega_exponential(self, series_exp):
        n, th = 5, 0.9
        path = rotation_leg(2, 4, th, n)
        target = series_exp(th * basis_Omega(2, 4, n).matrix())
        assert np.linalg.norm(path.endpoint() - target) < 1e-10

    def test_untouched_coordinates(self):
        path = rotation_leg(1, 2, 1.0, 5)
        G = path.endpoint()
        assert np.allclose(G[3:, 3:], np.eye(3), atol=1e-12)
        assert np.allclose(G[3:, :3], 0.0, atol=1e-12)

    def test_angle_folding(self, series_exp):
        n, th = 3, 1.5 * np.pi  # folds to pi/2 with reversed orientation
        path = rotation_leg(1, 3, th, n)
        target = series_exp(th * basis_Omega(1, 3, n).matrix())
        assert np.linalg.norm(path.endpoint() - target) < 1e-10
        assert path.legs[0].theta == pytest.approx(0.5 * np.pi)

    def test_length_ledger(self):
        th = 0.7
        path = rotation_leg(1, 2, th, 2)
        assert path.leg_lengths()["rotation"] == pytest.approx(
            np.sqrt(th * (th + 4 * np.pi))
        )


class TestPlanGroupPath:
    def test_identity_empty(self):
        path = plan_group_path(np.eye(4))
        assert len(path.legs) == 0
        assert path.length() == 0.0
        assert np.array_equal(path.endpoint(), np.eye(4))

    def test_single_rotation_block(self):
        A = rot_matrix(np.pi / 2, n=3)
        path = plan_group_path(A)
        assert np.linalg.norm(path.endpoint() - A) < 1e-9
        kinds = [leg.kind for leg in path.legs]
        assert kinds == ["rotation"]

    def test_random_so0_reconstruction(self, rng):
        for n in (3, 5):
            A = random_so0(rng, n)
            path = plan_group_path(A)
            assert np.linalg.norm(path.endpoint() - A) < 1e-7
            assert path.horizontality_residual() < 1e-10
            total = sum(length for length in path.leg_lengths().values())
            assert path.length() == pytest.approx(total, abs=1e-6)

    def test_boost_ledger_matches_factor(self, rng):
        from snakeplan.lorentz import factorize

        A = random_so0(rng, 4)
        _, u = factorize(A)
        path = plan_group_path(A)
        assert path.leg_lengths()["boost"] == pytest.approx(
            np.linalg.norm(u), abs=1e-9
        )

    def test_full_plan_step_consistency(self, rng):
        A = random_so0(rng, 3)
        path = plan_group_path(A, max_step=0.01)
        assert path.consistency_residual() < 1e-5


class TestCommutatorProbe:
    def test_zero_time_is_identity(self):
        path = commutator_probe(1, 2, 0.0, 4, 3)
        assert np.array_equal(path.endpoint(), np.eye(4))

    def test_limit_target_sign(self, series_exp):
        t, n = 0.5, 3
        target = series_exp(t * basis_Omega(1, 2, n).matrix())
        err = np.linalg.norm(commutator_probe(1, 2, t, 64, n).endpoint() - target)
        wrong = np.linalg.norm(commutator_probe(1, 2, t, 64, n).endpoint() - series_exp(-t * basis_Omega(1, 2, n).matrix()))
        assert err < 0.01 < wrong

    def test_error_halves_when_m_doubles(self, series_exp):
        t, n = 0.5, 3
        target = series_exp(t * basis_Omega(1, 2, n).matrix())
        errs = [
            np.linalg.norm(commutator_probe(1, 2, t, m, n).endpoint() - target)
            for m in (16, 32)
        ]
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.2)

    def test_paths_are_horizontal(self):
        path = commutator_probe(1, 3, 0.3, 8, 4)
        assert path.horizontality_residual() == 0.0


def concat_reference(n, legs):
    """Per-leg concatenation: re-copy the whole path for every leg."""
    times, mats = np.zeros(1), np.eye(n + 1)[None]
    for leg in legs:
        K = mats[-1]
        times = np.concatenate([times, times[-1] + leg.times[1:]])
        mats = np.concatenate([mats, leg.matrices[1:] @ K])
    return times, mats


def assert_matches_legs(path, n, legs):
    times, mats = concat_reference(n, legs)
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.matrices, mats)
    assert np.array_equal(path.controls, np.concatenate([np.zeros((0, n))] + [leg.controls for leg in legs]))
    # leg records tile [0, steps) in order
    starts = [leg.start for leg in path.legs]
    ends = [leg.end for leg in path.legs]
    assert starts == [0] + ends[:-1]
    assert ends[-1] == len(path.controls) == len(path.times) - 1
    assert [r.end - r.start for r in path.legs] == [len(leg.controls) for leg in legs]


class TestSingleAssembly:
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_commutator_probe_matches_per_leg_concat(self, m):
        n, t, s = 4, 0.6, np.sqrt(0.6 / m)
        path = commutator_probe(2, 4, t, m, n, max_step=0.05)
        ei, ej = s * np.eye(n)[1], s * np.eye(n)[3]
        legs = []
        for rep in range(m):
            sign = 1.0 if rep % 2 == 0 else -1.0
            for v in (sign * ej, sign * ei, -sign * ej, -sign * ei):
                legs.append(boost_leg(v, max_step=0.05))
        assert len(path.legs) == 4 * m
        assert_matches_legs(path, n, legs)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_plan_group_path_matches_per_leg_concat(self, n):
        from snakeplan.lorentz import factorize
        from snakeplan.planner import _plane_geodesic_leg

        A = random_so0(np.random.default_rng(100 + n), n)
        path = plan_group_path(A)
        blocks, u = factorize(A)
        legs = [boost_leg(u)]
        for block in sorted(blocks.blocks, key=lambda b: b.theta):
            for x, y in block.planes:
                legs.append(_plane_geodesic_leg(x, y, block.theta, n))
        assert len(path.legs) == len(legs) >= 2
        assert_matches_legs(path, n, legs)


class TestAct:
    def test_identity(self, rng):
        cfg = random_config(rng, 3)
        out = act(np.eye(4), cfg)
        assert config_distance(out, cfg) < 1e-12

    def test_rotation_rotates_nodes_and_endpoint(self, rng):
        from snakeplan.generate import random_rotation

        cfg = random_config(rng, 3)
        R = random_rotation(rng, 3)
        out = act(block_rot(R), cfg)
        assert np.allclose(out.nodes, cfg.nodes @ R.T, atol=1e-12)
        assert np.allclose(endpoint(out), R @ endpoint(cfg), atol=1e-10)

    def test_group_law(self, rng):
        cfg = random_config(rng, 3)
        A, B = random_so0(rng, 3), random_so0(rng, 3)
        lhs = act(A @ B, cfg)
        rhs = act(A, act(B, cfg))
        assert config_distance(lhs, rhs) < 1e-10

    def test_boost_action_matches_sphere_oracle(self, rng):
        cfg = random_config(rng, 3)
        A = exp_h(rng.normal(size=3))
        out = act(A, cfg)
        oracle = mobius_sphere_action_many(A, cfg.nodes)
        assert np.max(np.linalg.norm(out.nodes - oracle, axis=1)) < 1e-14


class TestInfinitesimalAction:
    def test_boost_generator_gives_e_field(self, rng):
        cfg = random_config(rng, 4)
        for i in (1, 3):
            got = infinitesimal_action(basis_U(i, 4), cfg)
            assert np.allclose(got, e_field(i, cfg), atol=1e-14)

    def test_rotation_at_constant_config(self):
        cfg = straight_config(3)  # all nodes e1
        got = infinitesimal_action(basis_Omega(1, 2, 3), cfg)
        expect = np.tile(np.array([0.0, -1.0, 0.0]), (cfg.nodes.shape[0], 1))
        assert np.allclose(got, expect, atol=1e-14)

    def test_matches_finite_difference_of_act(self, rng, series_exp):
        cfg = random_config(rng, 4)
        X = LieElement(u=rng.normal(size=4), skew=rng.normal(size=(4, 4)))
        eps = 1e-6
        Ap = series_exp(eps * X.matrix())
        Am = series_exp(-eps * X.matrix())
        fd = (act(Ap, cfg, check=False).nodes - act(Am, cfg, check=False).nodes) / (2 * eps)
        assert np.max(np.linalg.norm(fd - infinitesimal_action(X, cfg), axis=1)) < 1e-6

    def test_action_velocity_matches_field(self, rng):
        cfg = random_config(rng, 3)
        w = rng.normal(size=3)
        v = action_velocity(w, np.eye(4), cfg)
        assert np.max(np.abs(v - horizontal_gradient(w, cfg))) < 1e-12


class TestSteerConfig:
    def test_identity_constant_path(self, rng):
        cfg = random_config(rng, 3)
        path = steer_config(cfg, np.eye(4))
        assert len(path.nodes) == 1
        assert config_distance(path.final, cfg) < 1e-12

    def test_rotation_endpoint_and_horizontality(self, rng):
        cfg = random_config(rng, 3)
        A = rot_matrix(0.9, n=3)
        path = steer_config(cfg, A, max_step=0.05)
        assert config_distance(path.final, act(A, cfg)) < 1e-9
        for k in range(len(path.velocities)):
            fit = fit_horizontal(path.config(k), path.velocities[k])
            assert fit.residual < 1e-10

    def test_random_so0_final_config(self, rng):
        cfg = random_config(rng, 4)
        A = random_so0(rng, 4)
        path = steer_config(cfg, A, max_step=0.05)
        assert config_distance(path.final, act(A, cfg)) < 1e-7
        assert np.allclose(path.head_trace[-1], endpoint(path.final), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_batched_images_match_per_step_act(self, n):
        rng = np.random.default_rng(200 + n)
        cfg = random_config(rng, n)
        A = random_so0(rng, n)
        path = steer_config(cfg, A)
        plan = plan_group_path(A)
        assert np.array_equal(path.times, plan.times)
        assert len(path.nodes) == len(plan.matrices)
        for k, G in enumerate(plan.matrices):
            ref = act(G, cfg, check=False).nodes
            assert np.max(np.abs(path.nodes[k] - ref)) <= 4.5e-16
        for k in range(len(plan.controls)):
            ref = action_velocity(plan.controls[k], plan.matrices[k], cfg)
            assert np.array_equal(path.velocities[k], ref)

    def test_fd_velocities_second_order(self, rng):
        cfg = random_config(rng, 3)
        A = random_so0(rng, 3)
        r1 = config_velocity_residuals(steer_config(cfg, A, max_step=0.04), subsample=9).max()
        r2 = config_velocity_residuals(steer_config(cfg, A, max_step=0.02), subsample=17).max()
        assert r2 < 0.5 * r1  # O(dt^2) contamination of the FD probe


class TestHorizontalLift:
    def test_constant_head_constant_path(self, rng):
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        path = horizontal_lift(cfg, lambda t: c0, lambda t: np.zeros(3),
                               t_final=0.5, dt=1e-2)
        assert np.max(np.abs(path.controls)) < 1e-12
        assert config_distance(path.final, cfg) < 1e-12

    def test_straight_displacement_tracks(self, rng):
        cfg = random_config(rng, 3, L=2.0)
        c0 = endpoint(cfg)
        d = np.array([0.1 * cfg.L, 0.0, 0.0])
        path = horizontal_lift(cfg, lambda t: c0 + t * d, lambda t: d,
                               t_final=1.0, dt=1e-3)
        assert path.tracking_errors.max() < 1e-4

    def test_velocities_horizontal_and_minimal(self, rng):
        cfg = random_config(rng, 3, L=2.0)
        c0 = endpoint(cfg)
        d = np.array([0.05, 0.1, 0.0])
        path = horizontal_lift(cfg, lambda t: c0 + t * d, lambda t: d,
                               t_final=1.0, dt=5e-3)
        k = len(path.nodes) // 2
        ucfg = path.config(k)
        v = path.velocities[k]
        assert fit_horizontal(ucfg, v).residual < 1e-10
        # minimality: velocity is L2-orthogonal to sampled kernel fields
        for _ in range(5):
            raw = project_tangent(ucfg, np.random.default_rng(1).normal(size=v.shape))
            kern = raw - horizontal_gradient(fit_horizontal(ucfg, raw).w, ucfg)
            inner = np.einsum("i,ij,ij->", ucfg.weights, v, kern)
            assert abs(inner) < 1e-9 * max(1.0, l2_norm(ucfg, v) * l2_norm(ucfg, kern))

    def test_holonomy_of_closed_loop(self):
        from snakeplan.snake import SnakeConfig

        cfg = SnakeConfig.from_directions(
            2.0, [0.0, 1.0, 2.0],
            lambda s: np.array([np.cos(0.6 * s - 0.5), np.sin(0.6 * s - 0.5)]),
            dim=2,
        )
        c0 = endpoint(cfg)
        r = 0.1

        def head(t):
            return c0 + r * np.array([np.cos(2 * np.pi * t) - 1.0, np.sin(2 * np.pi * t)])

        def head_dot(t):
            return 2 * np.pi * r * np.array([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])

        path = horizontal_lift(cfg, head, head_dot, t_final=1.0, dt=1e-3)
        assert np.linalg.norm(path.head_trace[-1] - c0) < 1e-4
        assert config_distance(path.final, cfg) > 1e-3

    def test_singular_start_rejected(self):
        cfg = straight_config(3)
        c0 = endpoint(cfg)
        with pytest.raises(SingularityApproach):
            horizontal_lift(cfg, lambda t: c0, lambda t: np.zeros(3))

    def test_head_outside_ball_rejected(self, rng):
        cfg = random_config(rng, 3, L=1.0)
        c0 = endpoint(cfg)
        d = np.array([2.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            horizontal_lift(cfg, lambda t: c0 + t * d, lambda t: d)

    def test_wrong_anchor_rejected(self, rng):
        cfg = random_config(rng, 3)
        with pytest.raises(ValueError):
            horizontal_lift(cfg, lambda t: endpoint(cfg) + 0.5, lambda t: np.zeros(3))
