import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from snakeplan.generate import random_config, straight_config
from snakeplan.snake import (
    FIT_RANK_FACTOR,
    SnakeConfig,
    _gram,
    config_distance,
    critical_radii,
    differential_endpoint,
    endpoint,
    e_field,
    fit_horizontal,
    gauss_legendre,
    is_singular,
    snake_curve,
    snake_curve_matrix,
)
from snakeplan.sphere import tangent_at

from conftest import l2_norm


def e(i, n):
    out = np.zeros(n)
    out[i] = 1.0
    return out


def constant_config(direction, L=2.0, segments=2, m=16):
    d = np.asarray(direction, dtype=float)
    part = np.linspace(0.0, L, segments + 1)
    return SnakeConfig.from_segment_samples(L, part, [np.tile(d, (m, 1))] * segments)


def circle_config(L=2 * np.pi, n=3, segments=4, m=16):
    def direction(s):
        out = np.zeros(n)
        out[0] = np.cos(s * 2 * np.pi / L)
        out[1] = np.sin(s * 2 * np.pi / L)
        return out

    part = np.linspace(0.0, L, segments + 1)
    return SnakeConfig.from_directions(L, part, direction, dim=n)


class TestConfigValidation:
    def test_nodes_renormalized(self):
        cfg = constant_config(2.0 * e(0, 3))
        assert np.allclose(np.linalg.norm(cfg.nodes, axis=1), 1.0, atol=1e-15)

    def test_partition_must_increase(self):
        with pytest.raises(ValueError):
            SnakeConfig.from_segment_samples(
                1.0, [0.0, 0.7, 0.5, 1.0], [np.tile(e(0, 2), (4, 1))] * 3
            )

    def test_partition_endpoints_exact(self):
        with pytest.raises(ValueError):
            SnakeConfig.from_segment_samples(
                1.0, [0.0, 0.9], [np.tile(e(0, 2), (4, 1))]
            )

    def test_aliased_curve_rejected(self):
        # one segment winding twice around the circle: adjacent samples jump
        with pytest.raises(ValueError):
            SnakeConfig.from_directions(
                1.0, [0.0, 1.0],
                lambda s: np.array([np.cos(20 * np.pi * s), np.sin(20 * np.pi * s)]),
                nodes_per_segment=8,
            )

        # a direction jump at the partition point is allowed; an aliased
        # second segment is reported by its index
        def two_segments(freq):
            return lambda s: (e(0, 2) if s < 1.0 else
                              np.array([np.cos(freq * np.pi * s), np.sin(freq * np.pi * s)]))

        SnakeConfig.from_directions(2.0, [0.0, 1.0, 2.0], two_segments(0.5), nodes_per_segment=8)
        with pytest.raises(ValueError, match="segment 1"):
            SnakeConfig.from_directions(2.0, [0.0, 1.0, 2.0], two_segments(20.0),
                                        nodes_per_segment=8)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            SnakeConfig.from_segment_samples(
                1.0, [0.0, 1.0], [np.zeros((4, 2))]
            )

    def test_nodes_immutable(self):
        cfg = constant_config(e(0, 2))
        with pytest.raises(ValueError):
            cfg.nodes[0, 0] = 5.0

    # a NaN fails no comparison, so finiteness is tested on its own
    @pytest.mark.parametrize("L", [np.nan, np.inf, 0.0, -1.0])
    def test_length_must_be_positive_and_finite(self, L):
        with pytest.raises(ValueError, match=f"L must be positive and finite, got {L}"):
            SnakeConfig.from_segment_samples(L, [0.0, 1.0], [np.tile(e(0, 2), (4, 1))])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nodes_must_be_finite(self, value):
        nodes = np.tile(e(0, 2), (4, 1))
        nodes[2, 1] = value
        with pytest.raises(ValueError, match="nodes must be finite"):
            SnakeConfig.from_segment_samples(1.0, [0.0, 1.0], [nodes])

    @pytest.mark.parametrize("bound", [np.nan, 0.0, -0.1, np.nextafter(np.pi, 4.0), np.inf])
    def test_resolution_bound_outside_zero_to_pi_rejected(self, bound):
        with pytest.raises(ValueError, match="resolution bound must be in"):
            SnakeConfig.from_segment_samples(1.0, [0.0, 1.0], [np.tile(e(0, 2), (4, 1))],
                                             max_node_angle=bound)

    def test_resolution_bound_pi_admits_antipodal_neighbours(self):
        # the bound act and the planners' paths carry: no turn is too large
        nodes = np.array([e(0, 2), -e(0, 2)] * 2)
        cfg = SnakeConfig.from_segment_samples(1.0, [0.0, 1.0], [nodes], max_node_angle=np.pi)
        assert cfg.max_node_angle == np.pi


class TestEndpoint:
    def test_constant_direction(self):
        cfg = constant_config(e(0, 3), L=2.5)
        assert np.allclose(endpoint(cfg), 2.5 * e(0, 3), atol=1e-12)

    def test_fold_back_cancels(self):
        L, m = 2.0, 16
        cfg = SnakeConfig.from_segment_samples(
            L, [0.0, 1.0, 2.0],
            [np.tile(e(0, 2), (m, 1)), np.tile(-e(0, 2), (m, 1))],
        )
        assert np.linalg.norm(endpoint(cfg)) < 1e-14

    def test_full_circle_closes(self):
        cfg = circle_config()
        assert np.linalg.norm(endpoint(cfg)) < 1e-12

    def test_head_inside_ball(self, rng):
        cfg = random_config(rng, 4)
        assert np.linalg.norm(endpoint(cfg)) <= cfg.L + 1e-9


class TestSnakeCurve:
    def test_starts_at_origin(self, rng):
        cfg = random_config(rng, 3)
        assert np.linalg.norm(snake_curve(cfg, 0.0)) == 0.0

    def test_constant_direction_linear(self):
        cfg = constant_config(e(1, 3), L=2.0)
        for t in (0.3, 1.0, 1.7):
            assert np.allclose(snake_curve(cfg, t), t * e(1, 3), atol=1e-12)

    def test_full_length_matches_endpoint(self, rng):
        cfg = random_config(rng, 4)
        assert np.allclose(snake_curve(cfg, cfg.L), endpoint(cfg), atol=1e-10)

    def test_against_riemann_oracle(self):
        # dense Riemann sums of the analytic direction field
        L = 2.0

        def direction(s):
            return np.array([np.cos(0.8 * s), np.sin(0.8 * s)])

        cfg = SnakeConfig.from_directions(L, [0.0, 0.9, 2.0], direction, dim=2)
        for t in (0.25, 0.9, 1.4, 2.0):
            ss = np.linspace(0.0, t, 20001)
            vals = np.array([direction(s) for s in ss])
            oracle = np.trapezoid(vals, ss, axis=0)
            assert np.linalg.norm(snake_curve(cfg, t) - oracle) < 1e-8

    def test_arc_length_bound(self, rng):
        cfg = random_config(rng, 3)
        ts = np.sort(rng.uniform(0, cfg.L, size=8))
        for t1, t2 in zip(ts[:-1], ts[1:]):
            step = np.linalg.norm(snake_curve(cfg, t2) - snake_curve(cfg, t1))
            assert step <= (t2 - t1) + 1e-9

    def test_out_of_range(self, rng):
        cfg = random_config(rng, 3)
        with pytest.raises(ValueError):
            snake_curve(cfg, cfg.L + 0.1)


def legendre_partial_integral(u, t):
    """Reference S(t): per-point Legendre interpolant integral on one segment."""
    part, m = u.partition, u.nodes_per_segment
    out = np.zeros(u.dim)
    for k in range(u.segment_count):
        a, b = part[k], part[k + 1]
        seg = u.segment_nodes(k)
        if t >= b:
            out += u.weights[k * m : (k + 1) * m] @ seg
            continue
        if t <= a:
            break
        x_std, _ = npleg.leggauss(m)
        coeffs = np.linalg.solve(npleg.legvander(x_std, m - 1), seg)
        ic = npleg.legint(coeffs, axis=0)
        x_t = 2.0 * (t - a) / (b - a) - 1.0
        out += 0.5 * (b - a) * (npleg.legval(x_t, ic) - npleg.legval(-1.0, ic))
        break
    return out


class TestSnakeCurveMatrix:
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 16])
    def test_matches_legendre_oracle(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        L = 3.0
        part = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 2.8, size=3)), [L]])
        cfg = SnakeConfig.from_segment_samples(
            L, part, [rng.normal(size=(m, n)) for _ in range(4)], max_node_angle=np.pi
        )
        s = np.concatenate([part, rng.uniform(0.0, L, size=12), 0.5 * (part[:-1] + part[1:])])
        got = snake_curve_matrix(cfg, s) @ cfg.nodes
        ref = np.array([legendre_partial_integral(cfg, t) for t in s])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_rows_are_weights_at_partition_points(self, rng):
        cfg = random_config(rng, 3)
        P = snake_curve_matrix(cfg, cfg.partition)
        m = cfg.nodes_per_segment
        for k, row in enumerate(P):
            assert np.array_equal(row[: k * m], cfg.weights[: k * m])
            assert not row[k * m :].any()

    def test_out_of_range_rejected(self, rng):
        cfg = random_config(rng, 3)
        with pytest.raises(ValueError, match="outside"):
            snake_curve_matrix(cfg, [0.5, -0.1])

    def test_cached_rule(self):
        rule = gauss_legendre(5)
        assert gauss_legendre(5) is rule
        assert np.allclose(rule.cumulative([-1.0, 1.0]), [np.zeros(5), rule.w], atol=1e-15)
        # the m x m matrix at the abscissae integrates every degree < m exactly
        C = rule.cumulative(rule.x)
        assert np.allclose(C @ rule.x**3, (rule.x**4 - 1.0) / 4.0, atol=1e-14)
        for arr in (rule.x, rule.w, rule.integral):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def gram(u):
    """(Gamma_u, A_u) of a configuration."""
    return _gram(u.weights, u.L, u.nodes)


class TestGramData:
    # Gamma_u and A_u as _gram builds them
    def test_constant_direction_rank_one(self):
        cfg = constant_config(e(0, 3), L=2.0)
        G, A = gram(cfg)
        assert np.allclose(G, 2.0 * np.outer(e(0, 3), e(0, 3)), atol=1e-12)
        assert np.linalg.eigh(A)[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_circle_sweep_half_half(self):
        cfg = circle_config(L=2 * np.pi, n=3)
        expect = np.zeros((3, 3))
        expect[0, 0] = expect[1, 1] = np.pi
        assert np.linalg.norm(gram(cfg)[0] - expect) < 1e-10

    def test_trace_is_length(self, rng):
        cfg = random_config(rng, 5)
        assert np.trace(gram(cfg)[0]) == pytest.approx(cfg.L, abs=1e-8)

    def test_spectrum_in_zero_L(self, rng):
        cfg = random_config(rng, 4)
        gvals = np.linalg.eigvalsh(gram(cfg)[0])
        assert gvals[0] >= -1e-9
        assert gvals[-1] <= cfg.L + 1e-9


class TestIsSingular:
    def test_straight_is_singular(self):
        flag, margin = is_singular(straight_config(3))
        assert flag
        assert abs(margin) < 1e-12

    def test_circle_margin(self):
        cfg = circle_config(L=2 * np.pi, n=3)
        flag, margin = is_singular(cfg)
        assert not flag
        assert margin == pytest.approx(np.pi, abs=1e-9)

    def test_two_segment_bent_regular(self):
        L, m = 2.0, 16
        d2 = np.array([np.cos(0.9), np.sin(0.9)])
        cfg = SnakeConfig.from_segment_samples(
            L, [0.0, 1.0, 2.0],
            [np.tile(e(0, 2), (m, 1)), np.tile(d2, (m, 1))],
        )
        flag, margin = is_singular(cfg)
        assert not flag and margin > 0.1

    def test_rank_one_oracle_equivalence(self, rng):
        configs = [random_config(rng, 3, segments=2) for _ in range(20)]
        configs += [straight_config(3), straight_config(3, flips=(1,))]
        for cfg in configs:
            svals = np.linalg.svd(cfg.nodes, compute_uv=False)
            rank_one = svals[1] <= 1e-8 * svals[0]
            flag, _ = is_singular(cfg)
            assert flag == rank_one

    def test_full_length_head_implies_singular(self):
        cfg = straight_config(4)
        assert np.linalg.norm(endpoint(cfg)) == pytest.approx(cfg.L, abs=1e-12)
        assert is_singular(cfg)[0]


class TestHorizontalFields:
    def test_zero_direction(self, rng):
        cfg = random_config(rng, 3)
        assert np.linalg.norm(tangent_at(cfg.nodes, np.zeros(3))) == 0.0

    @pytest.mark.parametrize("i", [0, 4])
    def test_e_field_index_outside_1_to_n_rejected(self, rng, i):
        # index 0 would otherwise give the field of the last axis, as e[-1]
        with pytest.raises(ValueError, match=f"index {i} out of range 1..3"):
            e_field(i, random_config(rng, 3))

    def test_constant_config_orthogonal_direction(self):
        cfg = constant_config(e(0, 3))
        v = e_field(2, cfg)
        assert np.allclose(v, np.tile(e(1, 3), (cfg.nodes.shape[0], 1)))

    def test_tangency(self, rng):
        cfg = random_config(rng, 4)
        v = tangent_at(cfg.nodes, rng.normal(size=4))
        assert np.max(np.abs(np.einsum("ij,ij->i", v, cfg.nodes))) < 1e-12


class TestDifferentialEndpoint:
    def test_zero_field(self, rng):
        cfg = random_config(rng, 3)
        assert np.linalg.norm(differential_endpoint(cfg, np.zeros_like(cfg.nodes))) == 0.0

    def test_core_identity_a_u(self, rng):
        # T_u E (w - <w,u>u) = A_u w
        for _ in range(10):
            cfg = random_config(rng, 4)
            w = rng.normal(size=4)
            got = differential_endpoint(cfg, tangent_at(cfg.nodes, w))
            assert np.linalg.norm(got - gram(cfg)[1] @ w) < 1e-9

    def test_orthogonal_constant_case(self):
        cfg = constant_config(e(1, 2), L=2.0)
        got = differential_endpoint(cfg, e_field(1, cfg))
        assert np.allclose(got, 2.0 * e(0, 2), atol=1e-12)

    def test_matches_finite_difference_of_endpoint(self, rng):
        cfg = random_config(rng, 3)
        v = tangent_at(cfg.nodes, rng.normal(size=cfg.nodes.shape))
        eps = 1e-6

        def heads(sign):
            nodes = cfg.nodes + sign * eps * v
            nodes = nodes / np.linalg.norm(nodes, axis=1)[:, None]
            return cfg.weights @ nodes

        fd = (heads(+1) - heads(-1)) / (2 * eps)
        assert np.linalg.norm(fd - differential_endpoint(cfg, v)) < 1e-6


class TestFitHorizontal:
    def test_roundtrip_recovery(self, rng):
        cfg = random_config(rng, 4)
        w0 = rng.normal(size=4)
        res = fit_horizontal(cfg, cfg.nodes, tangent_at(cfg.nodes, w0))
        assert np.linalg.norm(res.w - w0) < 1e-9
        assert res.residual < 1e-9
        assert not res.restricted

    def test_kernel_field_residual_is_norm(self, rng):
        cfg = random_config(rng, 3)
        v = tangent_at(cfg.nodes, rng.normal(size=cfg.nodes.shape))
        fit = fit_horizontal(cfg, cfg.nodes, v)
        kernel_part = v - tangent_at(cfg.nodes, fit.w)
        fit2 = fit_horizontal(cfg, cfg.nodes, kernel_part)
        assert np.linalg.norm(fit2.w) < 1e-9
        assert fit2.residual == pytest.approx(l2_norm(cfg, kernel_part), abs=1e-10)

    def test_zero_field(self, rng):
        cfg = random_config(rng, 3)
        res = fit_horizontal(cfg, cfg.nodes, np.zeros_like(cfg.nodes))
        assert np.linalg.norm(res.w) == 0.0 and res.residual == 0.0

    def test_singular_config_restricted(self):
        cfg = straight_config(3)
        res = fit_horizontal(cfg, cfg.nodes, e_field(2, cfg))
        assert res.restricted


def normal_equation_fit(u, v, rank_tol):
    """Reference fit: per-configuration Gram eigen-solve on range(A_u)."""
    vals, vecs = np.linalg.eigh(gram(u)[1])
    keep = vals > rank_tol
    coeffs = vecs.T @ differential_endpoint(u, v)
    w = vecs[:, keep] @ (coeffs[keep] / vals[keep])
    return w, l2_norm(u, v - tangent_at(u.nodes, w)), bool(not keep.all())


def on_grid(grid, nodes):
    """Configuration with the given (K, n) nodes on grid's partition."""
    segs = nodes.reshape(grid.segment_count, grid.nodes_per_segment, -1)
    return SnakeConfig.from_segment_samples(grid.L, grid.partition, list(segs))


class TestFitHorizontalMany:
    # fit_horizontal on stacks of node sets
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_stack_matches_per_configuration_fits(self, n, monkeypatch):
        # every stack takes one batched eigen-solve; a singular member's fit
        # is restricted to range(A_u)
        rng = np.random.default_rng(300 + n)
        regular = random_config(rng, n)
        straight = on_grid(regular, np.tile(e(0, n), (regular.nodes.shape[0], 1)))
        Q, _ = np.linalg.qr(np.random.default_rng(310 + n).normal(size=(n, n)))
        rotated = on_grid(regular, regular.nodes @ Q.T)
        eigh = np.linalg.eigh
        for configs in ([regular, straight], [regular, rotated]):
            nodes = np.stack([c.nodes for c in configs])
            v = tangent_at(nodes, rng.normal(size=nodes.shape))
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
                fit = fit_horizontal(regular, nodes, v)
            assert len(calls) == 1
            assert fit.restricted.tolist() == [False, configs[1] is straight]
            for k, cfg in enumerate(configs):
                single = fit_horizontal(cfg, cfg.nodes, v[k])
                w, residual, restricted = normal_equation_fit(cfg, v[k], FIT_RANK_FACTOR * cfg.L)
                assert single.restricted == restricted == fit.restricted[k]
                assert abs(single.residual - fit.residual[k]) <= 1e-14
                assert abs(residual - fit.residual[k]) <= 1e-14
                assert np.max(np.abs(single.w - fit.w[k])) <= 1e-14
                assert np.max(np.abs(w - fit.w[k])) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_node_major_view_matches_contiguous_stack(self, n):
        # steer_config hands over (..., K, n) views of node-major arrays; a
        # straight member's fit is restricted
        rng = np.random.default_rng(320 + n)
        regular = random_config(rng, n)
        rotated = regular.nodes @ np.linalg.qr(rng.normal(size=(4, n, n)))[0].swapaxes(1, 2)
        straight = np.tile(e(0, n), (regular.nodes.shape[0], 1))

        def node_major(a):
            return np.ascontiguousarray(a.swapaxes(1, 2)).swapaxes(1, 2)

        for members in (rotated, np.concatenate([rotated, [straight]])):
            configs = [on_grid(regular, nodes) for nodes in members]
            nodes = np.stack([c.nodes for c in configs])
            v = tangent_at(nodes, rng.normal(size=nodes.shape))
            fit = fit_horizontal(regular, nodes, v)
            view = fit_horizontal(regular, node_major(nodes), node_major(v))
            assert fit.restricted.tolist() == view.restricted.tolist()
            assert fit.restricted.tolist() == [False] * 4 + [True] * (len(members) - 4)
            assert np.max(np.abs(fit.w - view.w)) <= 1e-14
            assert np.max(np.abs(fit.residual - view.residual)) <= 1e-14

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("n", [3, 8])
    def test_gate_at_singularity_threshold(self, n, factor):
        # a two-segment config kinked by +-eps off e1 has lambda_min(A_u) =
        # L sin^2 eps, here factor * cut with cut = 64 eps_mach L the rank cut
        L = 3.0
        cut = 64.0 * np.finfo(float).eps * L
        eps = np.arcsin(np.sqrt(factor * cut / L))
        up = np.cos(eps) * e(0, n) + np.sin(eps) * e(1, n)
        down = np.cos(eps) * e(0, n) - np.sin(eps) * e(1, n)
        cfg = SnakeConfig.from_segment_samples(
            L, [0.0, 0.5 * L, L], [np.tile(up, (16, 1)), np.tile(down, (16, 1))])
        # at 2e-14 the computed eigenvalue carries rounding of a few eps_mach L
        assert np.linalg.eigh(gram(cfg)[1])[0][0] == pytest.approx(factor * cut, rel=0.05)
        rng = np.random.default_rng(400 + n)
        v = tangent_at(cfg.nodes, rng.normal(size=cfg.nodes.shape))
        fit = fit_horizontal(cfg, cfg.nodes[None], v[None])
        w, residual, restricted = normal_equation_fit(cfg, v, cut)
        assert fit.restricted.tolist() == [restricted] == [factor < 1.0]
        assert np.max(np.abs(w - fit.w[0])) <= 1e-14 * max(1.0, np.max(np.abs(w)))
        assert abs(residual - fit.residual[0]) <= 1e-14 * max(1.0, np.max(np.abs(w)))


class TestCriticalRadii:
    def test_single_segment(self):
        assert np.allclose(critical_radii([0.0, 2.0]), [2.0])

    def test_two_equal_segments(self):
        assert np.allclose(critical_radii([0.0, 1.0, 2.0]), [0.0, 2.0])

    def test_unequal_segments_one_three(self):
        assert np.allclose(critical_radii([0.0, 1.0, 3.0]), [1.0, 3.0])

    def test_refusal_above_20_segments(self):
        with pytest.raises(ValueError):
            critical_radii(np.linspace(0, 1, 23))


def test_config_distance_symmetric_zero(rng):
    a = random_config(rng, 3)
    assert config_distance(a, a) == 0.0
