import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakeplan.generate import random_config, random_so0, straight_config
from snakeplan.lorentz import LieElement, _row_norms, basis_Omega, exp_h
from snakeplan.planner import (
    DEFAULT_MAX_STEP,
    GEODESIC_MIN_STEPS,
    GroupPath,
    LIFT_MARGIN_FACTOR,
    MAX_STEPS,
    _CHECK_CHUNK,
    SingularityApproach,
    _on_grid,
    _vertical_parameter,
    act,
    boost_leg,
    commutator_probe,
    config_velocity_residuals,
    horizontal_lift,
    infinitesimal_action,
    lift_history,
    plan_group_path,
    rotation_leg,
    steer_config,
    steer_history,
    su11_geodesic,
)
from snakeplan.snake import (
    _gram,
    config_distance,
    endpoint,
    fit_horizontal,
)
from snakeplan.sphere import mobius_sphere_action_many, tangent_at, xi_field

from conftest import DIMS, RAPIDITIES, l2_norm, lorentz_sample


def node_rounding(G, Z, legs):
    """Bound on |steer_config's node - the image of z under G| per node z of
    Z, for G a plan matrix (or a stack of them) of a plan with `legs` legs.

    Both are images of light-cone points. One product G (1, z)^T errs by
    about eps |G|_2 per entry, which moves its image by at most
    8 eps |G|_2 / w_t, w = G (1, z)^T. steer_config applies one block per
    leg, and an error made at a leg's start reaches step k through the rest
    of the path, whose conformal factor there is w_t(start) / w_t <=
    |G_start|_2 / w_t. Finished legs end on a rotation, so
    |G_start|_2 <= |S|_2 |G|_2 with |S|_2 <= 7 the norm of the block of the
    leg in progress (planner._consistency). So the two differ by at most
    8 (7 legs + 1) eps |G|_2 / w_t.
    """
    norm = np.abs(G[..., 0, 0]) + np.linalg.norm(G[..., 0, 1:], axis=-1)
    w_t = G[..., 0, :1] + G[..., 0, 1:] @ Z.T
    return 8.0 * (7 * legs + 1) * np.finfo(float).eps * norm[..., None] / w_t


def dense_matrices(path):
    """Oracle: a group path's (m+1, n+1, n+1) matrix stack, each leg's blocks
    S embedded by its frame P as Id + P (S - Id) P^T and applied to the
    matrix the leg starts from."""
    n = path.controls.shape[1]
    mats = [np.eye(n + 1)[None]]
    for leg in path.legs:
        P, S = leg.frame, leg.blocks[1:]
        mats.append((np.eye(n + 1) + P @ (S - np.eye(S.shape[-1])) @ P.T) @ mats[-1][-1])
    return np.concatenate(mats)


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

    @pytest.mark.parametrize("theta", [1e-8, 1e-6, 1e-4, 1e-2])
    def test_short_leg_sampled_by_its_period(self, theta):
        # a leg turns through one elliptic period however short it is, so its
        # step controls describe it only with enough steps per period
        path = rotation_leg(1, 2, theta, 3)
        assert len(path.controls) >= GEODESIC_MIN_STEPS
        assert path.consistency_residual() < 5e-5


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
            total = sum(length for length in path.leg_lengths().values())
            assert path.length() == pytest.approx(total, abs=1e-6)

    def test_length_is_the_left_to_right_sum_of_the_steps(self):
        # the exported length is fixed by its order of summation: bit for bit
        # that of a loop, on plans and on long probes
        paths = [plan_group_path(random_so0(np.random.default_rng(s), n))
                 for s in range(3) for n in (2, 3, 8)]
        paths += [commutator_probe(1, 2, t, m, 3) for t in (0.0, 0.5) for m in (1, 64, 1280)]
        for path in paths:
            total = 0.0
            for step in _row_norms(path.controls) * np.diff(path.times):
                total += float(step)
            assert path.length() == total

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("w", RAPIDITIES)
    def test_endpoint_across_rapidity(self, rng, n, w):
        A, _ = lorentz_sample(rng, n, w)
        assert np.linalg.norm(plan_group_path(A).endpoint() - A) <= 1e-9 * np.linalg.norm(A, 2)

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

    def test_consistency_residual_detects_perturbed_step(self, rng):
        path = plan_group_path(random_so0(rng, 3), max_step=0.01)
        assert path.consistency_residual() < 1e-5
        leg = path.legs[len(path.legs) // 2]
        leg.blocks[len(leg.blocks) // 2, 0, 1] += 1e-3
        assert path.consistency_residual() > 1e-5

    def test_plan_holds_no_dense_stack_at_dimension_64(self):
        # the legs are held in frames of at most 3 dimensions, so planning
        # and folding the endpoint stay far below one (m+1, n+1, n+1) stack
        import tracemalloc

        A = random_so0(np.random.default_rng(7), 64)
        tracemalloc.start()
        try:
            plan = plan_group_path(A)
            plan.endpoint()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * len(plan.times) * 65**2 * 8
        assert all(max(leg.blocks.shape[1:]) <= 3 for leg in plan.legs)

    def test_consistency_residual_of_empty_path(self):
        assert commutator_probe(1, 2, 0.0, 4, 3).consistency_residual() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_controls_continuous_under_one_ulp(self, n):
        # plane frames are canonical, so rounding in A moves the plan by rounding
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = random_so0(rng, n)
            i, j = rng.integers(0, n + 1, size=2)
            B = A.copy()
            B[i, j] = np.nextafter(B[i, j], np.inf)
            before, after = plan_group_path(A).controls, plan_group_path(B).controls
            assert before.shape == after.shape
            assert np.abs(after - before).max(initial=0.0) <= 1e-12


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


    @pytest.mark.parametrize("i, j", [(0, 1), (1, 4), (2, 2)])
    def test_axes_outside_1_to_n_rejected(self, i, j):
        # index 0 would otherwise boost along the last axis, as e[-1]
        with pytest.raises(ValueError, match="plane indices"):
            commutator_probe(i, j, 0.5, 4, 3)

    @pytest.mark.parametrize("step", [0.0, -0.02, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            commutator_probe(1, 2, 0.5, 4, 3, max_step=step)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan])
    def test_step_checked_before_any_leg(self, step):
        # t = 0 and the identity need no leg; the step is still checked
        with pytest.raises(ValueError, match="step must be positive and finite"):
            commutator_probe(1, 2, 0.0, 4, 3, max_step=step)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            plan_group_path(np.eye(4), max_step=step)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_t_must_be_finite(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            commutator_probe(1, 2, t, 4, 3)

    @pytest.mark.parametrize("t, m", [(1e300, 1), (-1e300, 1), (0.5, MAX_STEPS // 8 + 1)])
    def test_step_count_capped_before_any_leg(self, monkeypatch, t, m):
        from snakeplan import planner

        def no_leg(*args, **kwargs):
            raise AssertionError("a leg was built")

        monkeypatch.setattr(planner, "boost_leg", no_leg)
        with pytest.raises(ValueError, match=f"more than MAX_STEPS = {MAX_STEPS}"):
            commutator_probe(1, 2, t, m, 3)

    @pytest.mark.parametrize("m", [0, MAX_STEPS + 1, 10**400])
    def test_cycle_count_checked_before_any_float(self, monkeypatch, m):
        # 10**400 cycles would overflow sqrt(t / m)
        from snakeplan import planner

        def no_leg(*args, **kwargs):
            raise AssertionError("a leg was built")

        monkeypatch.setattr(planner, "boost_leg", no_leg)
        with pytest.raises(ValueError, match=f"m must be in 1..MAX_STEPS = {MAX_STEPS}"):
            commutator_probe(1, 2, 0.5, m, 3)

    def test_leg_step_count_capped(self):
        with pytest.raises(ValueError, match="step = 1e-06 gives 1e\\+06 steps"):
            plan_group_path(exp_h(np.array([1.0, 0.0, 0.0])), max_step=1e-6)


def concat_reference(n, legs):
    """Per-leg concatenation: re-copy the whole path for every leg."""
    times, controls = np.zeros(1), np.zeros((0, n))
    for leg in legs:
        times = np.concatenate([times, times[-1] + leg.times[1:]])
        controls = np.concatenate([controls, leg.controls])
    return times, controls


def assert_matches_legs(path, n, legs):
    times, controls = concat_reference(n, legs)
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.controls, controls)
    # one record per leg, in order, with its frame and blocks
    records = [r for leg in legs for r in leg.legs]
    assert [(r.kind, r.length, r.steps, r.theta) for r in path.legs] == \
        [(r.kind, r.length, r.steps, r.theta) for r in records]
    for got, want in zip(path.legs, records):
        assert np.array_equal(got.frame, want.frame)
        assert np.array_equal(got.blocks, want.blocks)


class TestSingleAssembly:
    @pytest.mark.parametrize("m", [1, 2, 7, 8, 64])
    def test_commutator_probe_matches_per_leg_concat(self, m):
        n = 4
        # a negative time swaps the two axes; the finer step gives every leg
        # of the m = 64 probe more than 2 steps
        for t, step in [(0.6, 0.05), (-0.6, 0.05), (0.6, 0.01), (-0.6, 0.01)]:
            path = commutator_probe(2, 4, t, m, n, max_step=step)
            s = np.sqrt(abs(t) / m)
            a, b = (1, 3) if t > 0 else (3, 1)
            ei, ej = s * np.eye(n)[a], s * np.eye(n)[b]
            legs = []
            for rep in range(m):
                sign = 1.0 if rep % 2 == 0 else -1.0
                for v in (sign * ej, sign * ei, -sign * ej, -sign * ei):
                    legs.append(boost_leg(v, max_step=step))
            assert len(path.legs) == 4 * m
            assert step == 0.05 or path.legs[0].steps > 2
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
                legs.append(_plane_geodesic_leg(x, y, block.theta))
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
            got = infinitesimal_action(LieElement(u=np.eye(4)[i - 1]), cfg)
            assert np.allclose(got, xi_field(i, cfg.nodes), atol=1e-14)

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
        fd = (act(Ap, cfg).nodes - act(Am, cfg).nodes) / (2 * eps)
        assert np.max(np.linalg.norm(fd - infinitesimal_action(X, cfg), axis=1)) < 1e-6

    def test_action_velocity_matches_field(self, rng):
        # a boost w moves the nodes with the horizontal field of w
        cfg = random_config(rng, 3)
        w = rng.normal(size=3)
        v = infinitesimal_action(LieElement(u=w), cfg)
        assert np.max(np.abs(v - tangent_at(cfg.nodes, w))) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_action_velocity_matches_finite_difference(self, n):
        rng = np.random.default_rng(300 + n)
        cfg = random_config(rng, n)
        A = random_so0(rng, n)
        u = rng.normal(size=n)
        eps = 1e-5
        plus = act(exp_h(eps * u) @ A, cfg).nodes
        minus = act(exp_h(-eps * u) @ A, cfg).nodes
        fd = (plus - minus) / (2 * eps)
        assert np.max(np.abs(tangent_at(act(A, cfg).nodes, u) - fd)) < 1e-8


class TestSteerConfig:
    def test_identity_constant_path(self, rng):
        cfg = random_config(rng, 3)
        path, nodes = steer_history(cfg, np.eye(4))
        assert len(nodes) == 1
        assert config_distance(path.final, cfg) < 1e-12

    def test_rotation_endpoint_and_horizontality(self, rng):
        cfg = random_config(rng, 3)
        A = rot_matrix(0.9, n=3)
        path, _ = steer_history(cfg, A, max_step=0.05)
        assert config_distance(path.final, act(A, cfg)) < 1e-9
        # every step is the boost of its control, within the derived bound
        assert np.all(path.residuals <= path.bounds)

    def test_random_so0_final_config(self, rng):
        cfg = random_config(rng, 4)
        A = random_so0(rng, 4)
        path = steer_config(cfg, A, max_step=0.05)
        assert config_distance(path.final, act(A, cfg)) < 1e-7
        assert np.allclose(path.head_trace[-1], endpoint(path.final), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_batched_images_match_per_step_act(self, n):
        # the plan's times and controls bit for bit; the nodes within the
        # rounding of the leg-wise action (node_rounding)
        rng = np.random.default_rng(200 + n)
        cfg = random_config(rng, n)
        A = random_so0(rng, n)
        path, nodes = steer_history(cfg, A)
        plan = plan_group_path(A)
        assert path.times.tobytes() == plan.times.tobytes()
        assert path.controls.tobytes() == plan.controls.tobytes()
        assert [(r.kind, r.length, r.steps, r.theta) for r in path.legs] == \
            [(r.kind, r.length, r.steps, r.theta) for r in plan.legs]
        assert np.array_equal(path.legs[0].u, plan.legs[0].u)
        mats = dense_matrices(plan)
        assert len(nodes) == len(mats)
        dense = mobius_sphere_action_many(mats, cfg.nodes)
        gap = np.linalg.norm(nodes - dense, axis=-1)
        assert np.all(gap <= node_rounding(mats, cfg.nodes, len(plan.legs)))

    @pytest.mark.parametrize("w", [0.0, 2.0, 8.0, 15.0])
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_nodes_match_per_node_light_cone_formula(self, n, w):
        # x = w_x / |w_x| with w = G (1, z), one node at a time
        rng = np.random.default_rng(500 + n)
        A = lorentz_sample(rng, n, w)[0]
        cfg = random_config(rng, n)
        _, nodes = steer_history(cfg, A)
        plan = plan_group_path(A)
        mats = dense_matrices(plan)
        for k in np.linspace(0, len(mats) - 1, 9).astype(int):
            G = mats[k]
            bound = node_rounding(G, cfg.nodes, len(plan.legs))
            for j, z in enumerate(cfg.nodes):
                cone = G @ np.concatenate([[1.0], z])
                x = cone[1:] / np.linalg.norm(cone[1:])
                assert np.linalg.norm(nodes[k, j] - x) <= bound[j]

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_velocities_match_finite_difference_at_sampled_steps(self, n):
        # d/dt act(exp_h(t u_k) gamma_k, u0) at t = 0, central difference
        rng = np.random.default_rng(600 + n)
        cfg = random_config(rng, n)
        A = random_so0(rng, n)
        path, nodes = steer_history(cfg, A)
        plan = plan_group_path(A)
        mats = dense_matrices(plan)
        eps = 1e-5
        for k in np.linspace(0, len(plan.controls) - 1, 7).astype(int):
            u, G = path.controls[k], mats[k]
            plus = act(exp_h(eps * u) @ G, cfg).nodes
            minus = act(exp_h(-eps * u) @ G, cfg).nodes
            fd = (plus - minus) / (2 * eps)
            # steer's velocity is the field of its control at its nodes
            assert np.max(np.abs(tangent_at(nodes[k], u) - fd)) < 1e-8

    def test_fd_residuals_match_per_step_fits(self, rng):
        cfg = random_config(rng, 3)
        path, nodes = steer_history(cfg, random_so0(rng, 3), max_step=0.05)
        ref = []
        for k in range(1, len(nodes) - 1, 3):
            uk = _on_grid(cfg, nodes[k])
            fd = (nodes[k + 1] - nodes[k - 1]) / (path.times[k + 1] - path.times[k - 1])
            ref.append(fit_horizontal(uk, uk.nodes, tangent_at(uk.nodes, fd)).residual)
        got = config_velocity_residuals(path, nodes, subsample=3)
        assert got.shape == (len(ref),)
        assert np.max(np.abs(got - ref)) <= 1e-14

    def test_fd_velocities_second_order(self, rng):
        cfg = random_config(rng, 3)
        A = random_so0(rng, 3)
        r1 = config_velocity_residuals(*steer_history(cfg, A, max_step=0.04), subsample=9).max()
        r2 = config_velocity_residuals(*steer_history(cfg, A, max_step=0.02), subsample=17).max()
        assert r2 < 0.5 * r1  # O(dt^2) contamination of the FD probe


class TestStepConsistency:
    @pytest.mark.parametrize("theta", [1e-6, 1e-2, 0.5, 2.0, np.pi])
    @pytest.mark.parametrize("m", [GEODESIC_MIN_STEPS, 2 * GEODESIC_MIN_STEPS])
    def test_magnus_term_is_sharp(self, series_exp, theta, m):
        # one step of a geodesic leg, conjugated to its midpoint, against the
        # boost of its midpoint control, over the great circle of its plane
        # where the two differ most: h^3 (eta^2 / 24 + |eta| / 12), with an
        # O(x^2) relative remainder, x = |eta| h
        eta, _, T = _vertical_parameter(theta)
        h = T / m
        U = np.zeros((4, 4))
        U[0, 1] = U[1, 0] = 1.0
        g = np.zeros((4, 4))
        g[2, 1], g[1, 2] = 1.0, -1.0
        half = series_exp(-0.5 * h * eta * g)
        step = half @ series_exp(h * (U + eta * g)) @ half
        a = np.linspace(0.0, 2.0 * np.pi, 20001)
        Z = np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=1)
        gap = np.linalg.norm(mobius_sphere_action_many(step, Z)
                             - mobius_sphere_action_many(series_exp(h * U), Z), axis=1)
        x = abs(eta) * h
        lead = h**3 * (eta * eta / 24.0 + abs(eta) / 12.0)
        assert -0.03 * x * x <= gap.max() / lead - 1.0 <= 0.06 * x * x

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_third_order_in_the_step(self, n, seed):
        # r_k / h^3 on geodesic steps stays flat as the step halves
        rng = np.random.default_rng(seed)
        A = random_so0(rng, n)
        cfg = random_config(rng, n)
        ratios = []
        for max_step in (0.04, 0.02, 0.01):
            path, _ = steer_history(cfg, A, max_step=max_step)
            r, bound = path.residuals, path.bounds
            assert np.all(r <= bound)
            geodesic = np.repeat([leg.kind == "rotation" for leg in path.legs],
                                 [leg.steps for leg in path.legs])
            h = np.diff(path.times)[geodesic]
            ratios.append((r[geodesic] / h**3).max())
        assert max(ratios) <= 1.05 * min(ratios)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_every_step_under_its_bound_to_rapidity_15(self, n):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            A = random_so0(rng, n, rapidity_max=15.0)
            path, _ = steer_history(random_config(rng, n), A)
            assert np.all(path.residuals <= path.bounds)

    @pytest.mark.parametrize("theta", [1e-8, 1e-6, 1e-4, 1e-2, np.pi - 1e-9])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_angles_near_0_and_pi(self, n, theta):
        # near 0 the vertical parameter |eta| ~ 2 pi / T is large
        rng = np.random.default_rng(40 + n)
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        g = np.outer(Q[:, 1], Q[:, 0]) - np.outer(Q[:, 0], Q[:, 1])
        A = block_rot(np.eye(n) + np.sin(theta) * g + (1.0 - np.cos(theta)) * g @ g) \
            @ exp_h(0.3 * rng.normal(size=n))
        path, _ = steer_history(random_config(rng, n), A)
        assert np.all(path.residuals <= path.bounds)

    @pytest.mark.parametrize("w", [2.0, 12.0])
    def test_boost_steps_see_a_moved_node_at_large_rapidity(self, monkeypatch, w):
        # a boost step's rounding term is each node's own 1 / W_t, so a node
        # the boost pushed towards its attracting point is checked to a few
        # eps even at |u| = 12, where |A|_2^2 eps is 6e-6.  The node is moved
        # in steer_history's window, where the step check reads it
        from snakeplan import planner

        rng = np.random.default_rng(12)
        A = lorentz_sample(rng, 3, w)[0]
        cfg = random_config(rng, 3)
        path, nodes = steer_history(cfg, A)
        k = path.legs[0].steps - 1
        r, bound = path.residuals, path.bounds
        assert np.all(r <= bound) and bound[k] < 1e-12
        j = int(np.argmax(nodes[k] @ path.controls[k]))
        v, check_steps = rng.normal(size=3), planner._check_steps

        def moved(Z, a, *args):  # Z holds every node set, a = 0
            z = Z[k, :, j]
            z += 1e-9 * tangent_at(z, v)
            return check_steps(Z, a, *args)

        monkeypatch.setattr(planner, "_check_steps", moved)
        path, _ = steer_history(cfg, A)
        r, bound = path.residuals, path.bounds
        assert r[k - 1] > bound[k - 1] and r[k] > bound[k]


class TestHorizontalLift:
    def test_constant_head_constant_path(self, rng):
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        path = horizontal_lift(cfg, lambda t: np.tile(c0, (len(t), 1)),
                               lambda t: np.zeros((len(t), 3)), t_final=0.5, dt=1e-2)
        assert np.max(np.abs(path.controls)) < 1e-12
        assert config_distance(path.final, cfg) < 1e-12

    def test_straight_displacement_tracks(self, rng):
        cfg = random_config(rng, 3, L=2.0)
        c0 = endpoint(cfg)
        d = np.array([0.1 * cfg.L, 0.0, 0.0])
        path = horizontal_lift(cfg, lambda t: c0 + np.multiply.outer(t, d),
                               lambda t: np.tile(d, (len(t), 1)),
                               t_final=1.0, dt=1e-3)
        assert path.tracking_errors.max() < 1e-4

    def test_stores_no_velocities(self, rng):
        # a path's velocity at step k is tangent_at(nodes[k], controls[k]),
        # for a lift as for steer
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        path = horizontal_lift(cfg, lambda t: np.tile(c0, (len(t), 1)),
                               lambda t: np.zeros((len(t), 3)), t_final=0.1, dt=1e-2)
        assert not hasattr(path, "velocities")
        assert not hasattr(steer_config(cfg, random_so0(rng, 3)), "velocities")

    def test_velocities_horizontal_and_minimal(self, rng):
        cfg = random_config(rng, 3, L=2.0)
        c0 = endpoint(cfg)
        d = np.array([0.05, 0.1, 0.0])
        path, nodes = lift_history(cfg, lambda t: c0 + np.multiply.outer(t, d),
                                   lambda t: np.tile(d, (len(t), 1)),
                                   t_final=1.0, dt=5e-3)
        k = len(nodes) // 2
        ucfg = _on_grid(cfg, nodes[k])
        v = tangent_at(nodes[k], path.controls[k])
        assert fit_horizontal(ucfg, ucfg.nodes, v).residual < 1e-10
        # minimality: velocity is L2-orthogonal to sampled kernel fields
        for _ in range(5):
            raw = tangent_at(ucfg.nodes, np.random.default_rng(1).normal(size=v.shape))
            kern = raw - tangent_at(ucfg.nodes, fit_horizontal(ucfg, ucfg.nodes, raw).w)
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
            return c0 + r * np.stack([np.cos(2 * np.pi * t) - 1.0, np.sin(2 * np.pi * t)],
                                     axis=-1)

        def head_dot(t):
            return 2 * np.pi * r * np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)],
                                            axis=-1)

        path = horizontal_lift(cfg, head, head_dot, t_final=1.0, dt=1e-3)
        assert np.linalg.norm(path.head_trace[-1] - c0) < 1e-4
        assert config_distance(path.final, cfg) > 1e-3

    def test_singular_start_rejected(self):
        cfg = straight_config(3)
        c0 = endpoint(cfg)
        with pytest.raises(SingularityApproach):
            horizontal_lift(cfg, lambda t: np.tile(c0, (len(t), 1)),
                            lambda t: np.zeros((len(t), 3)))

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, rng, dt):
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            horizontal_lift(cfg, lambda t: np.tile(c0, (len(t), 1)),
                            lambda t: np.zeros((len(t), 3)), dt=dt)

    @pytest.mark.parametrize("dt", [1e-6, 1e-15, 1e-320])
    def test_step_count_capped_before_the_head_is_read(self, rng, dt):
        def unread(t):
            raise AssertionError("the head curve was evaluated")

        with pytest.raises(ValueError, match=f"more than MAX_STEPS = {MAX_STEPS}"):
            horizontal_lift(random_config(rng, 3), unread, unread, dt=dt)

    def test_head_outside_ball_rejected(self, rng):
        cfg = random_config(rng, 3, L=1.0)
        c0 = endpoint(cfg)
        d = np.array([2.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            horizontal_lift(cfg, lambda t: c0 + np.multiply.outer(t, d),
                            lambda t: np.tile(d, (len(t), 1)))

    @pytest.mark.parametrize("dt", [1e-2, 2.5e-3])
    def test_head_curve_evaluated_once_per_grid(self, rng, dt):
        cfg = random_config(rng, 3, L=2.0)
        c0 = endpoint(cfg)
        d = np.array([0.05, 0.1, 0.0])
        calls = {"head": 0, "head_dot": 0}

        def head(t):
            calls["head"] += 1
            return c0 + np.multiply.outer(t, d)

        def head_dot(t):
            calls["head_dot"] += 1
            return np.tile(d, (len(t), 1))

        horizontal_lift(cfg, head, head_dot, t_final=1.0, dt=dt)
        assert calls["head"] <= 2
        assert calls["head_dot"] <= 3

    def test_scalar_head_dot_rejected(self, rng):
        # three steps on a 3-d head: a (3,) rate would broadcast over the
        # three stage times without the shape check
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        with pytest.raises(ValueError, match="shape"):
            horizontal_lift(cfg, lambda t: np.tile(c0, (len(t), 1)),
                            lambda t: np.zeros(3), t_final=0.3, dt=0.1)

    def test_wrong_anchor_rejected(self, rng):
        cfg = random_config(rng, 3)
        with pytest.raises(ValueError):
            horizontal_lift(cfg, lambda t: np.tile(endpoint(cfg) + 0.5, (len(t), 1)),
                            lambda t: np.zeros((len(t), 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_head_rejected(self, rng, bad):
        # a nan norm compares False against the ball's radius
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        with pytest.raises(ValueError, match="non-finite"):
            horizontal_lift(cfg, lambda t: np.where(t[:, None] > 0.5, bad, c0),
                            lambda t: np.zeros((len(t), 3)), dt=1e-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, rng, bad):
        cfg = random_config(rng, 3)
        c0 = endpoint(cfg)
        with pytest.raises(ValueError, match="non-finite"):
            horizontal_lift(cfg, lambda t: np.tile(c0, (len(t), 1)),
                            lambda t: np.where(t[:, None] > 0.5, bad, 0.0) * np.ones(3),
                            dt=1e-2)

    def test_lifts_share_no_buffers(self):
        # lifts at n = 8, 3 and 8 again each match a lift run alone, and no
        # output array of one path shares memory with another path's
        lifts = {}
        for n in (8, 3):
            u0 = random_config(np.random.default_rng(7), n)
            lifts[n] = (u0,) + circle_loop(u0)

        def run(n):
            u0, head, head_dot = lifts[n]
            return lift_history(u0, head, head_dot, t_final=1.0, dt=1e-2)

        def arrays(lift):
            path, nodes = lift
            return [path.times, nodes, path.controls, path.margins, path.tracking_errors,
                    path.head_trace, path.final.nodes]

        solo = {n: run(n) for n in (3, 8)}
        paths = [run(8), run(3), run(8)]
        for path in paths:
            want = solo[path[1].shape[-1]]
            assert path[0].eigen_solves == want[0].eigen_solves
            for got, ref in zip(arrays(path), arrays(want)):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        for i, path in enumerate(paths):
            for other in paths[i + 1:] + list(solo.values()):
                assert not any(np.shares_memory(a, b) for a in arrays(path) for b in arrays(other))


def four_eigh_lift(u0, head, head_dot, t_final, dt):
    """Oracle: the lift with an exact eigen-solve and abort check at every
    RK4 stage.  Returns (nodes, controls, velocities, tracking errors,
    step-start margins)."""
    margin_min = LIFT_MARGIN_FACTOR * u0.L
    m = max(1, int(round(t_final / dt)))
    times = np.linspace(0.0, t_final, m + 1)
    h = times[1] - times[0]
    rate, rate_mid, rate_end = (head_dot(times[:-1] + s) for s in (0.0, 0.5 * h, h))

    def velocity(t, nodes, c_dot):
        _, A = _gram(u0.weights, u0.L, nodes)
        vals, vecs = np.linalg.eigh(A)
        if vals[0] < margin_min:
            raise SingularityApproach(t, float(vals[0]))
        w = vecs @ ((vecs.T @ c_dot) / vals)
        return w[None, :] - (nodes @ w)[:, None] * nodes, w, vals[0]

    controls, margins = np.zeros((m, u0.dim)), np.zeros(m)
    vels = np.zeros((m,) + u0.nodes.shape)
    nodes = np.empty((m + 1,) + u0.nodes.shape)
    nodes[0] = u0.nodes
    for k, t in enumerate(times[:-1]):
        y = nodes[k]
        k1, controls[k], margins[k] = velocity(t, y, rate[k])
        k2, _, _ = velocity(t + 0.5 * h, y + 0.5 * h * k1, rate_mid[k])
        k3, _, _ = velocity(t + 0.5 * h, y + 0.5 * h * k2, rate_mid[k])
        k4, _, _ = velocity(t + h, y + h * k3, rate_end[k])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nodes[k + 1] = y / np.linalg.norm(y, axis=1)[:, None]
        vels[k] = k1
    track = np.linalg.norm(u0.weights @ nodes - head(times), axis=1)
    return nodes, controls, vels, track, margins


def circle_loop(u0):
    """The benchmark's closed head loop through endpoint(u0), with its rate."""
    c0 = endpoint(u0)
    r = min(0.05 * u0.L, 0.25 * (u0.L - np.linalg.norm(c0)))
    om = 2.0 * np.pi

    def head(t):
        p = np.tile(c0, (len(t), 1))
        p[:, 0] += r * (np.cos(om * t) - 1.0)
        p[:, 1] += r * np.sin(om * t)
        return p

    def head_dot(t):
        p = np.zeros((len(t), u0.dim))
        p[:, 0] = -r * om * np.sin(om * t)
        p[:, 1] = r * om * np.cos(om * t)
        return p

    return head, head_dot


def toward_boundary(u0, depth=1e-4):
    """Head pushed radially to (1 - depth) L at t = 1/2 and back: the lift
    must straighten the snake and approach the singular set."""
    c0 = endpoint(u0)
    d = ((1.0 - depth) * u0.L / np.linalg.norm(c0) - 1.0) * c0
    return (lambda t: c0 + np.multiply.outer(np.sin(np.pi * t), d),
            lambda t: np.multiply.outer(np.pi * np.cos(np.pi * t), d))


class TestLiftWindow:
    @pytest.mark.parametrize("n, segments, rows", [(16, 64, 4), (64, 68, 2)])
    def test_record_matches_the_whole_history(self, n, segments, rows):
        # a node set is K n doubles against a window of _CHECK_CHUNK: four node
        # sets at n = 16, K = 1024, and the least, two, at n = 64, K = 1088,
        # where one node set is larger than the window.  Step counts: one, a
        # window less one, a window, two windows, two windows and one
        u0 = random_config(np.random.default_rng(5), n, segments=segments)
        assert max(2, _CHECK_CHUNK // u0.nodes.size) == rows
        head, head_dot = circle_loop(u0)
        per = rows - 1  # the steps one window holds
        for m in sorted({1, per - 1, per, 2 * per, 2 * per + 1} - {0}):
            path = horizontal_lift(u0, head, head_dot, t_final=0.01 * m, dt=0.01)
            whole, nodes = lift_history(u0, head, head_dot, t_final=0.01 * m, dt=0.01)
            assert len(path.times) == len(nodes) == m + 1
            assert np.array_equal(path.head_trace, u0.weights @ nodes)
            assert np.array_equal(path.final.nodes, _on_grid(u0, nodes[-1]).nodes)
            assert np.array_equal(path.tracking_errors,
                                  _row_norms(u0.weights @ nodes - head(path.times)))
            for name in ("times", "controls", "margins", "head_trace", "tracking_errors"):
                assert np.array_equal(getattr(path, name), getattr(whole, name))
            assert path.eigen_solves == whole.eigen_solves

    def test_holds_no_node_history(self):
        # a 1000-step lift at n = 8 on K = 48 and on K = 96 nodes.  Per node it
        # allocates six stage buffers and the repeated weights (7 n doubles),
        # the final configuration with its check's temporaries (at most 4 n)
        # and node-wise scalars (dots, norms, the check's angles: at most 8);
        # its window is at most _CHECK_CHUNK doubles at either K, and nothing
        # else depends on K.  A node history would add 1001 * 48 n doubles.
        n, peaks = 8, {}
        for segments in (3, 6):
            u0 = random_config(np.random.default_rng(7), n, segments=segments)
            head, head_dot = circle_loop(u0)
            tracemalloc.start()
            try:
                horizontal_lift(u0, head, head_dot, t_final=1.0, dt=1e-3)
                peaks[len(u0.nodes)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = 8 * (48 * (11 * n + 8) + _CHECK_CHUNK)
        assert peaks[96] - peaks[48] <= bound < 8 * 1001 * 48 * n


class TestSteerWindow:
    @pytest.mark.parametrize("n, segments, rows, theta", [(15, 64, 4, 0.5), (63, 68, 2, 0.01)])
    def test_record_matches_the_whole_history(self, monkeypatch, n, segments, rows, theta):
        # a light-cone node set is (n+1) K doubles against a window of
        # _CHECK_CHUNK: four node sets at n = 15, K = 1024, and the least, two,
        # at n = 63, K = 1088, where one node set is larger than the window.
        # Step counts: none, one, a window less one, a window, two windows,
        # two windows and one; then a boost leg of two windows, whose end is
        # a window's, before a geodesic leg to the angle theta (128 steps at
        # 0.5, so every fourth node set is sampled, three to a window)
        from snakeplan import planner

        u0 = random_config(np.random.default_rng(5), n, segments=segments)
        assert max(2, _CHECK_CHUNK // ((n + 1) * len(u0.nodes))) == rows
        per = rows - 1  # the steps one window holds
        e1 = np.eye(n)[0]

        def boost(m):  # a boost leg of m >= 2 steps of DEFAULT_MAX_STEP
            return exp_h((m - 0.5) * DEFAULT_MAX_STEP * e1)

        def one_step(A, max_step=DEFAULT_MAX_STEP):  # no plan has one step
            path = boost_leg(0.01 * e1)
            leg = path.legs[0]
            return GroupPath(times=path.times[:2], controls=path.controls[:1],
                             legs=[replace(leg, steps=1, blocks=leg.blocks[:2])])

        cases = [(m, np.eye(n + 1) if m == 0 else boost(m))
                 for m in sorted({0, 1, per - 1, per, 2 * per, 2 * per + 1})]
        cases.append((None, rot_matrix(theta, n) @ boost(2 * per)))
        for m, A in cases:
            with monkeypatch.context() as patch:
                if m == 1:
                    patch.setattr(planner, "plan_group_path", one_step)
                path, (whole, nodes) = steer_config(u0, A), steer_history(u0, A)
            if m is None:
                assert [leg.steps for leg in path.legs][:1] == [2 * per]
                m = len(path.controls)
            assert len(path.times) == len(nodes) == m + 1
            r, bound = whole.residuals, whole.bounds
            assert np.array_equal(path.times, whole.times)
            assert np.array_equal(path.controls, whole.controls)
            assert np.array_equal(path.head_trace, u0.weights @ nodes)
            assert np.array_equal(path.final.nodes, _on_grid(u0, nodes[-1]).nodes)
            assert path.sample_every == max(1, (m + 1) // 32)
            assert np.array_equal(path.samples, nodes[:: path.sample_every])
            assert np.array_equal(path.residuals, r) and np.array_equal(path.bounds, bound)
            if m:
                assert np.argmax(path.residuals / path.bounds) == np.argmax(r / bound)

    def test_holds_no_node_history(self):
        # steer_config at n = 16 on K = 48 and on K = 96 nodes.  Per node it
        # keeps two m-step records (the check's p and r2), the check bound's
        # temporaries on the boost leg's steps (at most 4 a step), the sampled
        # node sets (at most 64 n) and the final configuration with its
        # check's temporaries (at most 4 n).  Its workspace, with a window's
        # temporaries, is at most 3 _CHECK_CHUNK doubles at either K, and
        # nothing else depends on K.  A node history would add 48 (m+1)(n+1).
        n, peaks = 16, {}
        A = random_so0(np.random.default_rng(7), n)
        plan = plan_group_path(A)
        m, boost = len(plan.controls), plan.legs[0].steps
        for segments in (3, 6):
            u0 = random_config(np.random.default_rng(7), n, segments=segments)
            tracemalloc.start()
            try:
                steer_config(u0, A)
                peaks[len(u0.nodes)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = 8 * (48 * (2 * m + 4 * boost + 68 * n) + 3 * _CHECK_CHUNK)
        assert peaks[96] - peaks[48] <= bound < 8 * 48 * (m + 1) * (n + 1)


def certifies(margin, delta, floor):
    """The certificate horizontal_lift applies at each later RK4 stage, as
    it writes it: Weyl's inequality, lambda_min(A0 + delta) >= margin - |delta|_2
    >= margin - |delta|_F, puts lambda_min above floor."""
    slack = margin - floor
    return slack > 0.0 and np.vdot(delta, delta) < slack * slack


def assert_close(got, want, scale=1e-13):
    assert np.all(np.abs(got - want) <= scale * np.maximum(1.0, np.abs(want)))


class TestCertifiedLift:
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("dt", [1e-3, 4e-3])
    def test_matches_four_eigh_oracle(self, n, dt):
        u0 = random_config(np.random.default_rng(7), n)
        head, head_dot = circle_loop(u0)
        path, lifted = lift_history(u0, head, head_dot, t_final=1.0, dt=dt)
        nodes, controls, vels, track, margins = four_eigh_lift(u0, head, head_dot, 1.0, dt)
        assert_close(lifted, nodes)
        assert_close(path.controls, controls)
        assert_close(tangent_at(lifted[:-1], path.controls[:, None]), vels)
        assert_close(path.tracking_errors, track)
        assert_close(path.margins, margins)
        # every later stage certified: one exact solve per step
        assert path.eigen_solves == len(path.times) - 1

    @pytest.mark.parametrize("n, dt", [(2, 1e-2), (3, 1e-3), (8, 1e-2)])
    def test_abort_at_oracle_stage_through_fallback(self, monkeypatch, n, dt):
        u0 = random_config(np.random.default_rng(3), n, L=2.0)
        head, head_dot = toward_boundary(u0)
        with pytest.raises(SingularityApproach) as want:
            four_eigh_lift(u0, head, head_dot, 1.0, dt)
        margin_min = LIFT_MARGIN_FACTOR * u0.L
        calls = {"eigh": 0, "solve": 0}
        eigh, solve = np.linalg.eigh, np.linalg.solve

        def counting_eigh(A):
            calls["eigh"] += 1
            return eigh(A)

        def checked_solve(A, b):
            # a certified stage: its exact lambda_min must clear the abort bound
            calls["solve"] += 1
            assert np.linalg.eigvalsh(A)[0] > margin_min
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        with pytest.raises(SingularityApproach) as got:
            horizontal_lift(u0, head, head_dot, t_final=1.0, dt=dt)
        assert 0.0 < got.value.time < 1.0
        assert got.value.time == want.value.time
        assert abs(got.value.margin - want.value.margin) <= 1e-12 * u0.L
        assert got.value.margin < margin_min
        # four stages per step: the steps started, each with one exact
        # solve; every eigh beyond those is a stage that fell back
        steps_started = -(-(calls["eigh"] + calls["solve"]) // 4)
        assert calls["eigh"] > steps_started

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_eigh_and_three_solves_per_step(self, monkeypatch, n):
        # a certified lift: the step-start eigen-solve and one solve per later
        # stage, each looked up through np.linalg when it is called
        u0 = random_config(np.random.default_rng(7), n)
        head, head_dot = circle_loop(u0)
        calls = {"eigh": 0, "solve": 0}
        eigh, solve = np.linalg.eigh, np.linalg.solve

        def counting_eigh(A):
            calls["eigh"] += 1
            return eigh(A)

        def counting_solve(A, b):
            calls["solve"] += 1
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        path = horizontal_lift(u0, head, head_dot, t_final=1.0, dt=4e-3)
        steps = len(path.times) - 1
        assert steps == 250
        assert calls == {"eigh": steps, "solve": 3 * steps}
        assert path.eigen_solves == steps

    def test_counts_fallback_solves(self):
        # a head that comes near the singular set and leaves again: the
        # stages near the turn fall back, and the lift still completes
        u0 = random_config(np.random.default_rng(3), 3, L=2.0)
        head, head_dot = toward_boundary(u0, depth=7e-4)
        path, lifted = lift_history(u0, head, head_dot, t_final=1.0, dt=1e-2)
        nodes, controls, _, _, margins = four_eigh_lift(u0, head, head_dot, 1.0, 1e-2)
        assert path.eigen_solves > len(path.times) - 1
        assert_close(lifted, nodes)
        assert_close(path.margins, margins)
        # controls solve with A_u near the abort bound: scale by its condition
        assert_close(path.controls, controls, 1e-13 * u0.L / margins.min())
        assert path.margins.min() < 1.5 * LIFT_MARGIN_FACTOR * u0.L

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 32), seed=st.integers(0, 2**32 - 1),
           lam_min=st.one_of(st.just(0.0), st.floats(1e-14, 1.0)),
           size=st.floats(0.0, 2.0), frac=st.floats(0.0, 1.0))
    def test_weyl_certificate_sound(self, n, seed, lam_min, size, frac):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A0 = (Q * np.concatenate([[lam_min], rng.uniform(1.0, 2.0, n - 1)])) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        margin = np.linalg.eigvalsh(A0)[0]
        tau = frac * lam_min
        D = rng.normal(size=(n, n))
        D += D.T
        D *= size * max(margin - tau, 0.0) / np.linalg.norm(D)
        # the same rounding allowance the lift adds: eigvalsh's eigenvalues
        # are off by a few n eps |A|_2, and |A0 + D|_2 <= 2 + |D|_F here
        floor = tau + 1e-12 * (2.0 + np.linalg.norm(D))
        if certifies(margin, D, floor):
            assert np.linalg.eigvalsh(A0 + D)[0] > tau
