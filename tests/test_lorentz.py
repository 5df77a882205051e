import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakeplan.generate import random_rotation, random_skew, random_so0
from snakeplan.lorentz import (
    LieElement,
    Membership,
    NotABoost,
    NotLorentz,
    basis_Omega,
    block_l1_norm,
    boost_decompose,
    bracket,
    classify,
    embed,
    embed_lie,
    exp_h,
    factorize,
    kak_decompose,
    log_boost,
    lorentz_product,
    lorentz_residual,
    pseudo_adjoint,
    spatial_block,
)
from snakeplan.rotations import so_exp_blocks

from conftest import DIMS, RAPIDITIES, lorentz_sample


def minkowski(t, x):
    return np.concatenate([[float(t)], np.asarray(x, dtype=float)])


def e(i, n):
    out = np.zeros(n)
    out[i] = 1.0
    return out


class TestLorentzProduct:
    def test_time_axis_squares_to_minus_one(self):
        a = minkowski(1.0, np.zeros(4))
        assert lorentz_product(a, a) == -1.0

    def test_light_cone_vector(self):
        a = minkowski(1.0, e(0, 4))
        assert lorentz_product(a, a) == 0.0

    def test_mixed_value(self):
        a = minkowski(2.0, e(0, 3) + e(1, 3))
        b = minkowski(1.0, e(0, 3))
        assert lorentz_product(a, b) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lorentz_product(minkowski(1, np.zeros(3)), minkowski(1, np.zeros(4)))

    @given(st.integers(2, 7), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, n, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=n + 1), r.normal(size=n + 1)
        assert lorentz_product(a, b) == pytest.approx(lorentz_product(b, a), abs=1e-12)


class TestPseudoAdjoint:
    def test_identity(self):
        assert np.array_equal(pseudo_adjoint(np.eye(5)), np.eye(5))

    def test_block_rotation(self, rng):
        Q = random_rotation(rng, 4)
        P = np.eye(5)
        P[1:, 1:] = Q
        expected = np.eye(5)
        expected[1:, 1:] = Q.T
        assert np.allclose(pseudo_adjoint(P), expected, atol=1e-15)

    def test_boost_inverse_identity(self, rng):
        # not pseudo-self-adjoint as an identity claim: the contract is
        # A^# A = Id, checked here for boosts
        u = rng.normal(size=5)
        T = exp_h(u)
        assert np.linalg.norm(pseudo_adjoint(T) @ T - np.eye(6)) < 1e-11

    def test_adjoint_pairing_on_random_vectors(self, rng):
        A = random_so0(rng, 4)
        for _ in range(20):
            u, w = rng.normal(size=5), rng.normal(size=5)
            assert lorentz_product(A @ u, w) == pytest.approx(
                lorentz_product(u, pseudo_adjoint(A) @ w), abs=1e-10
            )


class TestClassify:
    def test_identity_is_so0(self):
        assert classify(np.eye(5)) is Membership.SO0

    def test_time_reversal_is_o(self):
        J = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert classify(J) is Membership.O

    def test_spatial_reflection_is_so_not_so0(self):
        A = np.diag([1.0, -1.0, 1.0, 1.0])
        assert classify(A) is Membership.SO

    def test_garbage_is_not_lorentz(self, rng):
        assert classify(rng.normal(size=(5, 5))) is Membership.NOT_LORENTZ

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("w", RAPIDITIES)
    def test_grades_across_rapidity(self, rng, n, w):
        # the membership residual scales with |A|_2^2 = e^{2|u|}
        assert classify(lorentz_sample(rng, n, w)[0]) is Membership.SO0
        assert classify(lorentz_sample(rng, n, w, eps=-1.0)[0]) is Membership.O
        assert classify(lorentz_sample(rng, n, w, det=-1.0)[0]) is Membership.SO

    def test_so0_at_rapidity_30(self, rng):
        for n in DIMS:
            assert classify(lorentz_sample(rng, n, 30.0)[0]) is Membership.SO0


class TestExpH:
    def test_zero_gives_identity(self):
        assert np.array_equal(exp_h(np.zeros(4)), np.eye(5))

    def test_axis_boost_block(self):
        alpha = 0.9
        A = exp_h(alpha * e(0, 3))
        assert A[0, 0] == pytest.approx(np.cosh(alpha), abs=1e-15)
        assert A[0, 1] == pytest.approx(np.sinh(alpha), abs=1e-15)
        assert A[1, 1] == pytest.approx(np.cosh(alpha), abs=1e-15)
        assert np.allclose(A[2:, 2:], np.eye(2), atol=1e-16)

    def test_matches_series_exponential(self, rng, series_exp):
        for _ in range(25):
            u = rng.normal(size=5)
            u *= rng.uniform(0, 5) / np.linalg.norm(u)
            U = LieElement(u=u).matrix()
            assert np.linalg.norm(exp_h(u) - series_exp(U)) < 1e-12

    def test_small_omega_branch(self, series_exp):
        u = 1e-6 * np.array([1.0, -2.0, 0.5])
        U = LieElement(u=u).matrix()
        assert np.linalg.norm(exp_h(u) - series_exp(U)) < 1e-15

    def test_result_is_so0(self, rng):
        for _ in range(5):
            assert classify(exp_h(rng.normal(size=4))) is Membership.SO0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_stack_rows_match_single_calls(self, rng, n):
        # w = 0, the Taylor branch below 1e-4, its edge, and rapidity up to 30
        w = np.array([0.0, 1e-9, 3e-7, 5e-5, 9.99e-5, 1e-4, 0.3, 1.0, 4.0, 10.0, 20.0, 30.0])
        d = rng.normal(size=(w.size, n))
        U = (w / np.linalg.norm(d, axis=1))[:, None] * d
        S = exp_h(U)
        assert S.shape == (w.size, n + 1, n + 1)
        for k in range(w.size):
            assert np.array_equal(S[k], exp_h(U[k]))
        assert np.array_equal(exp_h(U.reshape(3, 4, n)), S.reshape(3, 4, n + 1, n + 1))


class TestLogBoost:
    def test_identity(self):
        assert np.linalg.norm(log_boost(np.eye(6))) == 0.0

    def test_axis_roundtrip(self):
        u = 1.3 * e(1, 4)
        assert np.allclose(log_boost(exp_h(u)), u, atol=1e-12)

    def test_random_roundtrip(self, rng):
        for _ in range(20):
            u = rng.normal(size=6)
            u *= rng.uniform(0, 5) / np.linalg.norm(u)
            assert np.linalg.norm(log_boost(exp_h(u)) - u) < 1e-9

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("w", [20.0, 25.0])
    def test_conjugated_roundtrip_at_large_rapidity(self, n, w):
        # R^T exp_h(u) R = exp_h(R^T u) is symmetric within about 1e-16 |T|_2,
        # which an asymmetry test scaled by |T|_2 admits
        for seed in range(20):
            rng = np.random.default_rng(seed)
            R = random_rotation(rng, n)
            d = rng.normal(size=n)
            u = w * d / np.linalg.norm(d)
            T = spatial_block(R).T @ exp_h(u) @ spatial_block(R)
            assert np.linalg.norm(log_boost(T) - R.T @ u) <= 1e-12

    def test_rejects_rotation(self, rng):
        P = np.eye(5)
        P[1:, 1:] = random_rotation(rng, 4)
        with pytest.raises(NotABoost):
            log_boost(P @ exp_h(rng.normal(size=4)))

    def test_rejects_symmetric_non_boost(self):
        # diag(1, R(pi), 1, ...) is symmetric SO0 but spectrally not a boost
        A = np.diag([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(NotABoost):
            log_boost(A)


class TestBoostDecompose:
    def test_identity(self):
        eps, Q, T = boost_decompose(np.eye(5))
        assert eps == 1.0
        assert np.allclose(Q, np.eye(4))
        assert np.allclose(T, np.eye(5))

    def test_pure_boost(self, rng):
        A = exp_h(1.2 * e(0, 3))
        eps, Q, T = boost_decompose(A)
        assert eps == 1.0
        assert np.allclose(Q, np.eye(3), atol=1e-12)
        assert np.allclose(T, A, atol=1e-12)

    def test_synthesize_then_decompose(self, rng):
        for n in (2, 4, 6):
            R = random_rotation(rng, n)
            u = rng.normal(size=n)
            P = np.eye(n + 1)
            P[1:, 1:] = R
            A = P @ exp_h(u)
            eps, Q, T = boost_decompose(A)
            assert eps == 1.0
            assert np.linalg.norm(T - exp_h(u)) < 1e-9
            assert np.linalg.norm(Q - R) < 1e-9

    def test_boost_factor_hyperbola_and_spectrum(self, rng):
        T = boost_decompose(random_so0(rng, 4)).T
        c, v = T[0, 0], T[0, 1:]
        alpha = np.arccosh(c)
        assert c**2 - v @ v == pytest.approx(1.0, abs=1e-12)
        vals = np.sort(np.linalg.eigvalsh(0.5 * (T + T.T)))
        assert vals[0] == pytest.approx(np.exp(-alpha), abs=1e-10)
        assert vals[-1] == pytest.approx(np.exp(alpha), abs=1e-10)
        assert np.allclose(vals[1:-1], 1.0, atol=1e-12)
        # identity on the orthogonal complement of v
        w = rng.normal(size=4)
        w -= (w @ v) / (v @ v) * v
        assert np.allclose(T[1:, 1:] @ w, w, atol=1e-12)

    def test_time_reversing_branch_reconstructs(self, rng):
        J = -np.eye(5)
        J[1:, 1:] *= -1  # diag(-1, Id): time reversal
        A = J @ exp_h(rng.normal(size=4))
        eps, Q, T = boost_decompose(A)
        P = np.eye(5)
        P[0, 0] = eps
        P[1:, 1:] = Q
        assert eps == -1.0
        assert np.linalg.norm(P @ T - A) < 1e-10

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("w", RAPIDITIES)
    def test_orthogonal_factor_across_rapidity(self, rng, n, w):
        for sign in (1.0, -1.0):
            eps, Q, T = boost_decompose(lorentz_sample(rng, n, w, eps=sign)[0])
            assert eps == sign
            assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-15 * n * np.exp(w)


class TestKakDecompose:
    def test_identity(self):
        Qp, alpha, Q = kak_decompose(np.eye(4))
        assert alpha == 0.0

    def test_reconstruction_random(self, rng):
        for n in (2, 4, 6):
            A = random_so0(rng, n)
            Qp, alpha, Q = kak_decompose(A)
            axis = np.eye(n + 1)
            axis[0, 0] = axis[1, 1] = np.cosh(alpha)
            axis[0, 1] = axis[1, 0] = np.sinh(alpha)
            P1, P2 = np.eye(n + 1), np.eye(n + 1)
            P1[1:, 1:] = Qp
            P2[1:, 1:] = Q.T
            assert np.linalg.norm(P1 @ axis @ P2 - A) < 1e-9
            assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-10)

    def test_axis_boost_along_e2(self):
        alpha = 0.7
        A = exp_h(alpha * e(1, 4))
        Qp, a, Q = kak_decompose(A)
        assert a == pytest.approx(alpha, abs=1e-12)

    @pytest.mark.parametrize("w", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 8.0, 15.0])
    def test_alpha_is_rapidity(self, rng, w):
        # alpha is |u| from the factor pass, not arccosh(T00), which loses
        # every digit below |u| ~ 1e-8
        for n in (2, 3, 8):
            A, u = lorentz_sample(rng, n, w)
            _, alpha, _ = kak_decompose(A)
            assert abs(alpha - np.linalg.norm(u)) <= 4e-16 * np.linalg.norm(u)


class TestDecompositionMembership:
    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("w", [19.0, 25.0, 30.0])
    def test_admits_valid_input_at_large_rapidity(self, n, w):
        # a reconstruction of a few products errs by about eps |A|_2^2, so no
        # bound linear in |A|_2 admits this input; membership decides instead
        for seed in range(12):
            A, _ = lorentz_sample(np.random.default_rng(seed), n, w)
            bound = 4.0 * np.finfo(float).eps * np.linalg.norm(A, 2) ** 2
            eps, Q, T = boost_decompose(A)
            assert np.linalg.norm(spatial_block(Q, eps) @ T - A) <= bound
            Qp, alpha, Qv = kak_decompose(A)
            recon = spatial_block(Qp) @ exp_h(alpha * e(0, n)) @ spatial_block(Qv).T
            assert np.linalg.norm(recon - A) <= bound

    def test_rejects_what_classify_rejects(self):
        # relative Lorentz residual 1.6e-9, above classify's 1e-9 |A|_2^2
        A = random_so0(np.random.default_rng(7), 3)
        A += 1e-9 * np.random.default_rng(1).normal(size=A.shape)
        assert classify(A) is Membership.NOT_LORENTZ
        with pytest.raises(NotLorentz):
            boost_decompose(A)
        with pytest.raises(NotLorentz):
            kak_decompose(A)

    def test_kak_rejects_time_reversal(self, rng):
        with pytest.raises(NotLorentz, match="SO-grade"):
            kak_decompose(lorentz_sample(rng, 3, 1.0, eps=-1.0)[0])


class TestBracket:
    def test_u1_u2_gives_omega12(self):
        n = 4
        out = bracket(LieElement(u=e(0, n)), LieElement(u=e(1, n)))
        assert np.linalg.norm(out.u) == 0.0
        assert np.array_equal(out.skew, basis_Omega(1, 2, n).skew)

    def test_u1_omega12_gives_u2(self):
        n = 3
        out = bracket(LieElement(u=e(0, n)), basis_Omega(1, 2, n))
        assert np.allclose(out.u, e(1, n))
        assert np.linalg.norm(out.skew) == 0.0

    def test_self_bracket_vanishes(self, rng):
        X = LieElement(u=rng.normal(size=4), skew=random_skew(rng, 4))
        out = bracket(X, X)
        assert out.h_norm() == 0.0 and out.s_norm() == 0.0

    def test_matches_matrix_commutator_oracle(self, rng):
        for _ in range(20):
            X = LieElement(u=rng.normal(size=5), skew=random_skew(rng, 5))
            Y = LieElement(u=rng.normal(size=5), skew=random_skew(rng, 5))
            M = X.matrix() @ Y.matrix() - Y.matrix() @ X.matrix()
            assert np.linalg.norm(bracket(X, Y).matrix() - M) < 1e-12

    def test_grading(self, rng):
        n = 5
        Xh = LieElement(u=rng.normal(size=n))
        Yh = LieElement(u=rng.normal(size=n))
        Xs = LieElement(u=np.zeros(n), skew=random_skew(rng, n))
        Ys = LieElement(u=np.zeros(n), skew=random_skew(rng, n))
        assert bracket(Xh, Yh).h_norm() == 0.0  # [h,h] in s
        assert bracket(Xh, Ys).s_norm() == 0.0  # [h,s] in h
        assert bracket(Xs, Ys).h_norm() == 0.0  # [s,s] in s

    def test_jacobi_identity(self, rng):
        for _ in range(10):
            els = [
                LieElement(u=rng.normal(size=4), skew=random_skew(rng, 4))
                for _ in range(3)
            ]
            X, Y, Z = els
            J = (
                bracket(X, bracket(Y, Z)).matrix()
                + bracket(Y, bracket(Z, X)).matrix()
                + bracket(Z, bracket(X, Y)).matrix()
            )
            assert np.linalg.norm(J) < 1e-10


class TestFactorize:
    def test_identity(self):
        blocks, u = factorize(np.eye(5))
        assert len(blocks.blocks) == 0
        assert np.linalg.norm(u) == 0.0

    def test_single_planar_rotation(self):
        n, th = 4, np.pi / 3
        A = np.eye(n + 1)
        A[1, 1] = A[2, 2] = np.cos(th)
        A[1, 2] = -np.sin(th)
        A[2, 1] = np.sin(th)
        blocks, u = factorize(A)
        assert np.linalg.norm(u) < 1e-12
        assert len(blocks.blocks) == 1
        assert blocks.blocks[0].theta == pytest.approx(th, abs=1e-12)

    def test_reconstruction_random_so0(self, rng):
        for n in (4, 6):
            A = random_so0(rng, n)
            blocks, u = factorize(A)
            R = np.eye(n + 1)
            R[1:, 1:] = so_exp_blocks(blocks)
            assert np.linalg.norm(R @ exp_h(u) - A) < 1e-8
            for b in blocks.blocks:
                assert 0.0 < b.theta <= np.pi + 1e-12

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("w", RAPIDITIES)
    def test_reconstruction_across_rapidity(self, rng, n, w):
        A, _ = lorentz_sample(rng, n, w)
        blocks, u = factorize(A)
        R = np.eye(n + 1)
        R[1:, 1:] = so_exp_blocks(blocks)
        assert np.linalg.norm(R @ exp_h(u) - A) <= 1e-9 * np.linalg.norm(A, 2)

    @pytest.mark.parametrize("kw", [{"eps": -1.0}, {"det": -1.0}])
    def test_rejects_outside_so0(self, rng, kw):
        with pytest.raises(NotLorentz):
            factorize(lorentz_sample(rng, 3, 8.0, **kw)[0])

    def test_admits_what_classify_admits(self):
        # relative Lorentz residual 1.6e-9: classify's 1e-9 |A|_2^2 rejects it
        A = random_so0(np.random.default_rng(7), 3)
        A += 1e-9 * np.random.default_rng(1).normal(size=A.shape)
        assert classify(A) is Membership.NOT_LORENTZ
        with pytest.raises(NotLorentz):
            factorize(A)

    @pytest.mark.parametrize("n", [3, 8])
    def test_reconstruction_at_rapidity_19(self, n):
        # Q's rounding defect, about 3e-16 |A|_2, is far above an absolute 1e-8
        for seed in range(12):
            A, _ = lorentz_sample(np.random.default_rng(seed), n, 19.0)
            blocks, u = factorize(A)
            recon = spatial_block(so_exp_blocks(blocks)) @ exp_h(u)
            assert np.linalg.norm(recon - A) <= 1e-8 * np.linalg.norm(A, 2)


class TestBlockL1Norm:
    def test_pure_boost_part(self, rng):
        u = rng.normal(size=5)
        assert block_l1_norm(LieElement(u=u)) == pytest.approx(np.linalg.norm(u))

    def test_single_rotation_generator(self):
        th = 0.8
        X = th * basis_Omega(1, 2, 4)
        assert block_l1_norm(X) == pytest.approx(2.0 * th, abs=1e-12)

    def test_against_svd_oracle(self, rng):
        B = random_skew(rng, 6)
        svals = np.linalg.svd(B, compute_uv=False)
        expected = sum(s for s in svals if s > 1e-10)  # theta per 2x2 plane, twice
        X = LieElement(u=np.zeros(6), skew=B)
        assert block_l1_norm(X) == pytest.approx(expected, abs=1e-9)


class TestEmbed:
    def test_identity_padding(self):
        assert np.array_equal(embed(np.eye(4), 5), np.eye(6))

    def test_boost_extra_coordinates_fixed(self):
        A = embed(exp_h(0.5 * e(0, 2)), 4)
        assert classify(A) is Membership.SO0
        assert np.allclose(A[3:, 3:], np.eye(2))

    def test_bracket_commutes_with_embed(self, rng):
        X = LieElement(u=rng.normal(size=3), skew=random_skew(rng, 3))
        Y = LieElement(u=rng.normal(size=3), skew=random_skew(rng, 3))
        a = embed_lie(bracket(X, Y), 6)
        b = bracket(embed_lie(X, 6), embed_lie(Y, 6))
        assert np.linalg.norm(a.matrix() - b.matrix()) < 1e-14


def test_membership_residual_invariant(rng):
    for n in range(2, 9):
        A = random_so0(rng, n, rapidity_max=5.0)
        assert lorentz_residual(A) <= 1e-10
