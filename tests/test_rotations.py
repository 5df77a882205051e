import itertools

import numpy as np
import pytest

from snakeplan.generate import random_rotation, random_skew
from snakeplan.rotations import RotationBlocks, skew_spectral, so_exp_blocks, so_log


def planar_rotation(n, i, j, theta):
    Q = np.eye(n)
    Q[i, i] = Q[j, j] = np.cos(theta)
    Q[i, j] = -np.sin(theta)
    Q[j, i] = np.sin(theta)
    return Q


def canonical_skew(n, i, j, theta):
    B = np.zeros((n, n))
    B[i, j] = -theta
    B[j, i] = theta
    return B


# angles at 0+, pi- and pi, repeated and clustered; one plane per angle
EDGE_ANGLES = [
    (1e-7,), (np.pi - 1e-9,), (np.pi,), (np.pi, np.pi), (1.0, 1.0),
    (0.3, np.pi - 0.3), (np.pi / 3 - 1e-7, np.pi / 3 + 1e-7), (1e-9, np.pi - 1e-9),
]


def planted(V, angles):
    """(B, Exp(B)) with one plane per angle, spanned by consecutive columns of V."""
    n = V.shape[0]
    D = np.zeros((n, n))
    R = np.eye(n)
    for r, a in enumerate(angles):
        D[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = canonical_skew(2, 0, 1, a)
        R[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = planar_rotation(2, 0, 1, a)
    return V @ D @ V.T, V @ R @ V.T


def edge_cases(rng):
    """(B, Exp(B)) for every EDGE_ANGLES entry at n = 4, 7 and 32, with
    the planes spanned by consecutive columns of a random rotation."""
    for n in (4, 7, 32):
        for angles in EDGE_ANGLES:
            yield planted(random_rotation(rng, n), angles)


def pole_cases():
    """(B, Exp(B)) at n = 32 with 16 planes, so that no gap between
    eigen-angles is wide: the angles k pi / 16 (k = 1..16, pi included),
    and the same 16 planes paired as the eight angles j pi / 8 (j = 1..8),
    each split into the pair -+ 1e-7 (the last straddles pi)."""
    rng = np.random.default_rng(16)
    spread = np.arange(1, 17) * np.pi / 16
    paired = np.repeat(np.arange(1, 9) * np.pi / 8, 2) + np.tile([-1e-7, 1e-7], 8)
    for angles in (spread, paired):
        yield planted(random_rotation(rng, 32), angles)


def spectrum_angles(rb):
    """Sorted angles of every eigenvalue pair the blocks claim, 0 on the kernel."""
    thetas = [b.theta for b in rb.blocks for _ in range(2 * len(b.planes))]
    return np.sort(np.concatenate([thetas, np.zeros(rb.kernel_basis.shape[1])]))


def frame_entries(rb):
    """Every plane frame and kernel vector of the blocks, as one flat array."""
    return np.concatenate([np.ravel(b.planes) for b in rb.blocks] + [rb.kernel_basis.ravel()])


def assert_block_axioms(rb, tol=1e-10):
    # cubic relation, pairwise commutation, orthonormal frames + kernel
    vecs = []
    for b in rb.blocks:
        G = b.generator
        assert np.linalg.norm(G @ G @ G + G) < tol
        for x, y in b.planes:
            vecs.extend([x, y])
            # generator vanishes off its planes, acts as J on them
            assert np.linalg.norm(G @ x - y) < tol
            assert np.linalg.norm(G @ y + x) < tol
    for a in rb.blocks:
        for b in rb.blocks:
            if a is not b:
                assert np.linalg.norm(a.generator @ b.generator - b.generator @ a.generator) < tol
        if rb.kernel_basis.shape[1]:
            assert np.linalg.norm(a.generator @ rb.kernel_basis) < tol
    vecs.extend(list(rb.kernel_basis.T))
    V = np.array(vecs)
    assert V.shape[0] == rb.dim
    assert np.linalg.norm(V @ V.T - np.eye(rb.dim)) < 1e-9


class TestSkewSpectral:
    def test_zero_matrix(self):
        rb = skew_spectral(np.zeros((4, 4)))
        assert len(rb.blocks) == 0
        assert rb.kernel_basis.shape == (4, 4)

    def test_canonical_block(self):
        rb = skew_spectral(canonical_skew(4, 0, 1, 0.7))
        assert len(rb.blocks) == 1
        b = rb.blocks[0]
        assert b.theta == pytest.approx(0.7, abs=1e-12)
        assert len(b.planes) == 1
        assert rb.kernel_basis.shape[1] == 2

    def test_random_reconstruction(self, rng):
        for n in (5, 7, 10):
            B = random_skew(rng, n, scale=3.0)
            rb = skew_spectral(B)
            assert np.linalg.norm(rb.generator_sum() - B) < 1e-10
            assert_block_axioms(rb)
        for scale in (1.0, 9.5):
            for B, _ in itertools.chain(edge_cases(rng), pole_cases()):
                rb = skew_spectral(scale * B)
                err = np.linalg.norm(rb.generator_sum() - scale * B)
                assert err <= 1e-13 * np.linalg.norm(scale * B)
                assert_block_axioms(rb)

    def test_angles_match_eigenvalue_oracle(self, rng):
        B = random_skew(rng, 7)
        rb = skew_spectral(B)
        eig = np.linalg.eigvals(B)
        imag = np.sort(np.abs(eig.imag[np.abs(eig.imag) > 1e-10]))
        thetas = np.sort(np.concatenate([[b.theta] * 2 * len(b.planes) for b in rb.blocks]))
        assert np.allclose(imag, thetas, atol=1e-9)
        # |B| up to 30 puts angles above pi; skew_spectral does not fold them
        for scale in (1.0, 9.5):
            for B, _ in edge_cases(rng):
                oracle = np.sort(np.abs(np.linalg.eigvals(scale * B).imag))
                got = spectrum_angles(skew_spectral(scale * B))
                assert np.abs(got - oracle).max() <= 1e-13 * np.linalg.norm(scale * B)

    def test_repeated_angle_merges(self):
        B = canonical_skew(6, 0, 1, 1.1) + canonical_skew(6, 2, 3, 1.1)
        rb = skew_spectral(B)
        assert len(rb.blocks) == 1
        assert len(rb.blocks[0].planes) == 2
        assert np.linalg.norm(rb.generator_sum() - B) < 1e-12
        assert_block_axioms(rb)

    def test_rejects_non_skew(self, rng):
        with pytest.raises(ValueError):
            skew_spectral(rng.normal(size=(4, 4)))


class TestSoLog:
    def test_identity(self):
        B, rb = so_log(np.eye(5))
        assert np.linalg.norm(B) == 0.0
        assert len(rb.blocks) == 0
        assert rb.kernel_basis.shape[1] == 5

    def test_angle_folding_three_half_pi(self):
        Q = planar_rotation(3, 0, 1, 1.5 * np.pi)
        B, rb = so_log(Q)
        assert rb.blocks[0].theta == pytest.approx(0.5 * np.pi, abs=1e-12)
        assert np.linalg.norm(so_exp_blocks(rb) - Q) < 1e-12

    def test_half_turn(self):
        Q = np.diag([-1.0, -1.0, 1.0])
        B, rb = so_log(Q)
        assert rb.blocks[0].theta == pytest.approx(np.pi)
        assert np.linalg.norm(so_exp_blocks(rb) - Q) < 1e-12
        # the half-turn plane frame is the axis pair itself, whatever the eigen-solver picked
        assert np.array_equal(np.array(rb.blocks[0].planes[0]), np.eye(3)[:2])

    def test_random_roundtrip(self, rng, series_exp):
        for n in (4, 8):
            for _ in range(5):
                Q = series_exp(random_skew(rng, n, scale=4.0))
                B, rb = so_log(Q)
                assert np.linalg.norm(so_exp_blocks(rb) - Q) < 1e-9
                assert np.linalg.norm(series_exp(B) - Q) < 1e-9
                for b in rb.blocks:
                    assert 0.0 < b.theta <= np.pi + 1e-12
                assert_block_axioms(rb, tol=1e-9)
        for _, Q in itertools.chain(edge_cases(rng), pole_cases()):
            n = Q.shape[0]
            B, rb = so_log(Q)
            assert np.linalg.norm(so_exp_blocks(rb) - Q) <= 1e-14 * n
            assert np.linalg.norm(series_exp(B) - Q) < 1e-9
            for b in rb.blocks:
                assert 0.0 < b.theta <= np.pi + 1e-12
            assert_block_axioms(rb, tol=1e-9)
            oracle = np.sort(np.abs(np.angle(np.linalg.eigvals(Q))))
            assert np.abs(spectrum_angles(rb) - oracle).max() <= 1e-14 * n
            # frames are canonical: one ulp in Q moves them by its conditioning,
            # up to 3e-6 here (sin theta = 1e-9), not onto other frames
            Q[0, -1] = np.nextafter(Q[0, -1], np.inf)
            _, moved = so_log(Q)
            assert np.abs(frame_entries(moved) - frame_entries(rb)).max() <= 1e-4

    def test_rejects_improper(self, rng):
        Q = random_rotation(rng, 4)
        Q[:, 0] *= -1.0
        with pytest.raises(ValueError):
            so_log(Q)

    def test_rejects_non_orthogonal(self, rng):
        with pytest.raises(ValueError):
            so_log(rng.normal(size=(4, 4)))


def block_product(rb):
    """Oracle: the commuting product of every block's closed-form planar
    rotation Exp(theta B), applied block by block at dimension n."""
    from snakeplan.rotations import planar_rotation as exp_block

    Q = np.eye(rb.dim)
    for b in rb.blocks:
        Q = exp_block(b.generator, b.theta) @ Q
    return Q


class TestSoExpBlocks:
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_matches_the_block_product(self, n):
        # a random rotation, one block of n // 2 planes at one angle, and (at
        # n >= 4) a half-turn block of two planes beside a plane at 1 rad;
        # every entry is a sum over at most n planes, the product's a product
        # of at most n / 2 rotations
        rng = np.random.default_rng(40 + n)
        cases = [random_rotation(rng, n), planted(random_rotation(rng, n), [1.0] * (n // 2))[1]]
        if n >= 4:
            cases.append(planted(random_rotation(rng, n), [np.pi, np.pi, 1.0][: n // 2])[1])
        eps = np.finfo(float).eps
        for Q in cases:
            _, rb = so_log(Q)
            got, want = so_exp_blocks(rb), block_product(rb)
            assert np.abs(got - want).max() <= 4 * n * eps
            assert np.linalg.norm(got.T @ got - np.eye(n)) <= 4 * n * eps
        assert len(so_log(cases[1])[1].blocks) == 1

    def test_empty(self):
        assert np.array_equal(so_exp_blocks(RotationBlocks(dim=3)), np.eye(3))

    def test_single_block(self):
        rb = skew_spectral(canonical_skew(4, 0, 1, 0.9))
        expect = planar_rotation(4, 0, 1, 0.9)
        got = so_exp_blocks(rb)
        # orientation of the frame is internal; compare via reconstruction
        assert np.linalg.norm(got - expect) < 1e-12

    def test_inverse_pair(self, rng):
        Q = random_rotation(rng, 6)
        _, rb = so_log(Q)
        assert np.linalg.norm(so_exp_blocks(rb) - Q) < 1e-9

    def test_orthogonal_det_one(self, rng, series_exp):
        Q0 = series_exp(random_skew(rng, 5, scale=2.0))
        _, rb = so_log(Q0)
        Q = so_exp_blocks(rb)
        assert np.linalg.norm(Q.T @ Q - np.eye(5)) < 1e-12
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-10)
