import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakeplan.generate import random_rotation, random_so0
from snakeplan.lorentz import basis_Omega, exp_h
from snakeplan.sphere import (
    INFINITY,
    NotOrthochronous,
    bracket_rotation_flow,
    hyperbolic_distance,
    lorentz_to_hyperbolic,
    mobius_sphere_action_many,
    reflect_plane,
    reflect_sphere,
    sphere_point,
    stereographic,
    stereographic_inv,
    tangent_at,
    xi_bracket,
    xi_field,
)


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def rand_unit(r, n):
    return unit(r.normal(size=n))


def rot_block(R):
    n = R.shape[0]
    P = np.eye(n + 1)
    P[1:, 1:] = R
    return P


class TestStereographic:
    def test_south_pole_to_origin(self):
        z = np.array([-1.0, 0.0, 0.0])
        assert np.allclose(stereographic(z), np.zeros(2))

    def test_equator_fixed(self, rng):
        xbar = rand_unit(rng, 3)
        z = np.concatenate([[0.0], xbar])
        assert np.allclose(stereographic(z), xbar, atol=1e-15)

    def test_north_pole_to_infinity(self):
        assert stereographic(np.array([1.0, 0.0, 0.0])) is INFINITY

    def test_infinity_to_north_pole(self):
        N = stereographic_inv(INFINITY, dim=4)
        assert np.array_equal(N, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_origin_to_south_pole(self):
        z = stereographic_inv(np.zeros(3))
        assert np.allclose(z, np.array([-1.0, 0.0, 0.0, 0.0]))

    def test_far_points_approach_north_pole(self):
        p = 1e6 * np.array([1.0, 1.0]) / np.sqrt(2)
        z = stereographic_inv(p)
        assert np.linalg.norm(z - np.array([1.0, 0.0, 0.0])) < 1e-5

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, seed):
        r = np.random.default_rng(seed)
        z = rand_unit(r, 4)
        if z[0] > 1.0 - 1e-6:
            z = -z
        back = stereographic_inv(stereographic(z))
        assert np.linalg.norm(back - z) < 1e-12


class TestReflections:
    def test_sphere_fixes_its_points(self, rng):
        a = rng.normal(size=3)
        r = 1.7
        x = a + r * rand_unit(rng, 3)
        assert np.allclose(reflect_sphere(a, r, x), x, atol=1e-12)

    def test_sphere_center_to_infinity(self, rng):
        a = rng.normal(size=3)
        assert reflect_sphere(a, 2.0, a.copy()) is INFINITY
        assert np.allclose(reflect_sphere(a, 2.0, INFINITY), a)

    def test_plane_fixes_plane_and_infinity(self, rng):
        a = rand_unit(rng, 4)
        t = 0.3
        x = rng.normal(size=4)
        x = x + (t - a @ x) * a  # now <a, x> = t
        assert np.allclose(reflect_plane(a, t, x), x, atol=1e-12)
        assert reflect_plane(a, t, INFINITY) is INFINITY

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_involutions(self, seed):
        r = np.random.default_rng(seed)
        a, x = r.normal(size=3), r.normal(size=3)
        rad = float(r.uniform(0.5, 2.0))
        t = float(r.uniform(-1, 1))
        y = reflect_sphere(a, rad, x)
        if y is not INFINITY:
            assert np.linalg.norm(reflect_sphere(a, rad, y) - x) < 1e-10
        y = reflect_plane(a, t, x)
        assert np.linalg.norm(reflect_plane(a, t, y) - x) < 1e-12


class TestHyperbolicDistance:
    def test_coincident_points(self, rng):
        x = rng.normal(size=4)
        assert hyperbolic_distance(x, x) == pytest.approx(0.0, abs=1e-6)

    def test_axis_value(self):
        t = 1.8
        x = np.zeros(3)
        y = np.array([t, 0.0, 0.0])
        assert hyperbolic_distance(x, y) == pytest.approx(np.arcsinh(t), abs=1e-12)

    def test_positive_for_distinct_points(self, rng):
        for _ in range(20):
            x = rng.normal(size=3)
            y = x + rng.normal(size=3) * 0.1
            assert hyperbolic_distance(x, y) > 0.0

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            x, y, z = (rng.normal(size=3) for _ in range(3))
            assert hyperbolic_distance(x, z) <= (
                hyperbolic_distance(x, y) + hyperbolic_distance(y, z) + 1e-10
            )

    def test_isometry_of_lorentz_action(self, rng):
        A = random_so0(rng, 4)
        for _ in range(1000):
            x, y = rng.normal(size=4), rng.normal(size=4)
            d0 = hyperbolic_distance(x, y)
            d1 = hyperbolic_distance(
                lorentz_to_hyperbolic(A, x),
                lorentz_to_hyperbolic(A, y),
            )
            assert abs(d0 - d1) < 1e-9


class TestLorentzToHyperbolic:
    def test_identity(self, rng):
        x = rng.normal(size=3)
        assert np.allclose(lorentz_to_hyperbolic(np.eye(4), x), x)

    def test_rotation_acts_linearly(self, rng):
        R = random_rotation(rng, 3)
        x = rng.normal(size=3)
        assert np.allclose(lorentz_to_hyperbolic(rot_block(R), x), R @ x, atol=1e-12)

    def test_boost_moves_origin_along_axis(self):
        alpha = 0.9
        u = np.zeros(3)
        u[0] = alpha
        out = lorentz_to_hyperbolic(exp_h(u), np.zeros(3))
        assert np.allclose(out, np.array([np.sinh(alpha), 0.0, 0.0]), atol=1e-12)


class TestSphereAction:
    def test_identity(self, rng):
        z = rand_unit(rng, 4)
        assert np.allclose(mobius_sphere_action_many(np.eye(5), z[None])[0], z)

    def test_rotation_case(self, rng):
        R = random_rotation(rng, 4)
        z = rand_unit(rng, 4)
        assert np.allclose(mobius_sphere_action_many(rot_block(R), z[None])[0], R @ z, atol=1e-12)

    def test_group_law(self, rng):
        A, B = random_so0(rng, 3), random_so0(rng, 3)
        for _ in range(20):
            z = rand_unit(rng, 3)
            ab = mobius_sphere_action_many(A @ B, z[None])[0]
            a_b = mobius_sphere_action_many(A, mobius_sphere_action_many(B, z[None]))[0]
            assert np.linalg.norm(ab - a_b) < 1e-10

    def test_stays_on_sphere(self, rng):
        A = random_so0(rng, 5)
        Z = np.array([rand_unit(rng, 5) for _ in range(40)])
        out = mobius_sphere_action_many(A, Z)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    def test_non_orthochronous_rejected(self, rng):
        J = np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NotOrthochronous):
            mobius_sphere_action_many(J @ exp_h(rng.normal(size=3)), rand_unit(rng, 3)[None])

    def test_orbit_matches_gradient_flow_rk4(self, rng):
        # closed-form boost orbit vs RK4 on zdot = v - <v, z> z
        n = 4
        v = rng.normal(size=n)
        z = rand_unit(rng, n)
        h = 1e-3
        y = z.copy()
        for k in range(1000):
            f = lambda p: tangent_at(p / np.linalg.norm(p), v)
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            y /= np.linalg.norm(y)
        target = mobius_sphere_action_many(exp_h(v), z[None])[0]
        assert np.linalg.norm(y - target) < 1e-6


class TestGradPhi:
    # the sphere gradient of phi_v(z) = <v, z> is tangent_at(z, v)
    def test_fixed_point(self, rng):
        v = unit(rng.normal(size=4))
        assert np.linalg.norm(tangent_at(v, v)) < 1e-14

    def test_orthogonal_point(self, rng):
        v = rng.normal(size=4)
        z = rng.normal(size=4)
        z = unit(z - (z @ unit(v)) * unit(v))
        assert np.allclose(tangent_at(z, unit(v)), unit(v), atol=1e-12)

    def test_tangency(self, rng):
        for _ in range(20):
            v, z = unit(rng.normal(size=5)), rand_unit(rng, 5)
            g = tangent_at(z, v)
            assert abs(g @ z) < 1e-12
            assert np.allclose(tangent_at(z, g), g, atol=1e-14)

    def test_finite_difference_along_sphere_curves(self, rng):
        # directional derivative of phi_v along any tangent direction
        v = rng.normal(size=4)
        vh = unit(v)
        for _ in range(10):
            z = rand_unit(rng, 4)
            w = rng.normal(size=4)
            w = w - (w @ z) * z
            eps = 1e-6
            zp = unit(z + eps * w)
            zm = unit(z - eps * w)
            fd = (vh @ zp - vh @ zm) / (2 * eps)
            assert abs(fd - tangent_at(z, vh) @ w) < 1e-6


class TestXiFields:
    def test_vanishes_at_own_axis(self):
        z = np.array([0.0, 1.0, 0.0])
        assert np.linalg.norm(xi_field(2, z)) < 1e-15

    def test_constant_on_other_axes(self):
        z = np.array([0.0, 1.0, 0.0])
        assert np.allclose(xi_field(1, z), np.array([1.0, 0.0, 0.0]))

    def test_bracket_values(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(xi_bracket(1, 2, e1), np.array([0.0, 1.0, 0.0]))
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(xi_bracket(1, 2, e3)) == 0.0

    def test_bracket_matches_finite_differences(self, rng):
        # [X,Y] = DY X - DX Y with the ambient extensions of the xi fields
        n, i, j = 4, 1, 3
        z = rand_unit(rng, n)
        eps = 1e-5

        def xi(k, p):
            out = -p[k - 1] * p
            out[k - 1] += 1.0
            return out

        def dfield(k, p, h):
            return (xi(k, p + eps * h) - xi(k, p - eps * h)) / (2 * eps)

        fd = dfield(j, z, xi(i, z)) - dfield(i, z, xi(j, z))
        assert np.linalg.norm(fd - xi_bracket(i, j, z)) < 1e-6


class TestBracketRotationFlow:
    def test_zero_time(self, rng):
        v, w = rng.normal(size=4), rng.normal(size=4)
        z = rand_unit(rng, 4)
        assert np.allclose(bracket_rotation_flow(v, w, 0.0, z), z)

    def test_fixes_orthogonal_complement(self, rng):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0, 0.0])
        z = unit(np.array([0.0, 0.0, 1.0, -2.0]))
        assert np.allclose(bracket_rotation_flow(v, w, 1.1, z), z, atol=1e-14)

    def test_rejects_dependent_vectors(self, rng):
        v = rng.normal(size=3)
        with pytest.raises(ValueError):
            bracket_rotation_flow(v, 2.0 * v, 0.5, rand_unit(rng, 3))

    def test_commutator_of_flows_converges(self, rng):
        # orthonormal pair: the 4-cycle of closed-form flows approaches the
        # bracket rotation at t = s^2
        n = 4
        v = rand_unit(rng, n)
        w = rng.normal(size=n)
        w = unit(w - (w @ v) * v)
        z = rand_unit(rng, n)

        def flow(d, s, p):
            return mobius_sphere_action_many(exp_h(s * unit(d)), p[None])[0]

        def cycle(s, p):
            # right-to-left composition of Phi^v_s Phi^w_s Phi^v_-s Phi^w_-s
            return flow(v, s, flow(w, s, flow(v, -s, flow(w, -s, p))))

        errs = []
        for s in (0.08, 0.04, 0.02):
            errs.append(np.linalg.norm(cycle(s, z) - bracket_rotation_flow(v, w, s * s, z)))
        rates = np.diff(np.log(errs)) / np.log(0.5)
        assert errs[-1] < errs[0]
        assert np.all(rates >= 1.7)  # at least second order


class TestInfinitesimalDictionary:
    def test_boost_derivative_is_grad_phi(self, rng):
        # d/dt|0 action(exp_h(t v), z) = v - <v, z> z
        for _ in range(10):
            v = rng.normal(size=4)
            z = rand_unit(rng, 4)
            eps = 1e-6
            fd = (
                mobius_sphere_action_many(exp_h(eps * v), z[None])[0]
                - mobius_sphere_action_many(exp_h(-eps * v), z[None])[0]
            ) / (2 * eps)
            assert np.linalg.norm(fd - tangent_at(z, v)) < 1e-6

    def test_rotation_derivative_is_minus_xi_bracket(self, rng):
        n, i, j = 4, 2, 4
        G = basis_Omega(i, j, n).matrix()
        z = rand_unit(rng, n)
        eps = 1e-6
        Rp = np.eye(n + 1) + np.sin(eps) * G + (1 - np.cos(eps)) * (G @ G)
        Rm = np.eye(n + 1) - np.sin(eps) * G + (1 - np.cos(eps)) * (G @ G)
        fd = (mobius_sphere_action_many(Rp, z[None])[0]
              - mobius_sphere_action_many(Rm, z[None])[0]) / (2 * eps)
        expected = np.zeros(n)
        expected[i - 1] = z[j - 1]
        expected[j - 1] = -z[i - 1]
        assert np.linalg.norm(fd - expected) < 1e-6
        assert np.linalg.norm(fd + xi_bracket(i, j, z)) < 1e-6


def test_sphere_point_rejects_zero():
    with pytest.raises(ValueError):
        sphere_point(np.zeros(3))


def test_sphere_point_and_tangent_at_take_stacks(rng):
    Z, V = rng.normal(size=(2, 4, 5, 3))
    U = sphere_point(Z)
    T = tangent_at(U, V)
    for idx in np.ndindex(4, 5):
        assert np.max(np.abs(U[idx] - sphere_point(Z[idx]))) <= 4e-16
        assert np.max(np.abs(T[idx] - tangent_at(U[idx], V[idx]))) <= 1e-15
    assert np.max(np.abs(np.einsum("...i,...i->...", T, U))) <= 1e-15
    # one vector broadcasts against a stack of points
    w = rng.normal(size=3)
    assert np.array_equal(tangent_at(U, w), tangent_at(U, np.broadcast_to(w, U.shape)))
    Z[2, 3] = 0.0
    with pytest.raises(ValueError):
        sphere_point(Z)
