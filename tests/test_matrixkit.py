import math

import numpy as np
import pytest
import scipy.linalg

from tsdyn.matrixkit import _PADE13_THETA, expm, spectral_norm, spectral_radius

from conftest import ROTATION_A


def random_matrix(rng, m, scale=1.0):
    return scale * rng.standard_normal((m, m))


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        M = np.diag([0.3, -1.7])
        assert np.allclose(expm(M), np.diag(np.exp([0.3, -1.7])), rtol=1e-13)

    def test_rotation_scaling_closed_form(self):
        # 5A = -2I + J with J^2 = -I, so expm(5A) = e^-2 [[cos 1, sin 1], [-sin 1, cos 1]]
        want = math.exp(-2.0) * np.array(
            [[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]]
        )
        assert np.allclose(expm(5.0 * ROTATION_A), want, atol=1e-14)

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = random_matrix(rng, 4, scale=1.5)
            assert np.allclose(expm(M) @ expm(-M), np.eye(4), atol=1e-10)

    def test_commuting_product(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = random_matrix(rng, 3)
            N = 0.4 * M @ M - 0.7 * M + 0.2 * np.eye(3)  # commutes with M
            assert np.allclose(expm(M + N), expm(M) @ expm(N), atol=1e-10)

    def test_det_is_exp_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = random_matrix(rng, 3)
            assert np.linalg.det(expm(M)) == pytest.approx(math.exp(np.trace(M)), rel=1e-8)

    def test_against_scipy(self):
        rng = np.random.default_rng(4)
        for scale in (0.1, 1.0, 8.0):
            M = random_matrix(rng, 5, scale=scale)
            assert np.allclose(expm(M), scipy.linalg.expm(M), rtol=1e-11, atol=1e-11)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.25])) == 0.5

    def test_worked_example(self):
        B = expm(5.0 * ROTATION_A) @ (np.eye(2) + 3.0 * ROTATION_A)
        assert spectral_radius(B) == pytest.approx(
            math.exp(-2.0) * math.sqrt(0.4), abs=1e-12
        )

    def test_rotation_has_unit_radius(self):
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        assert spectral_radius(np.array([[c, s], [-s, c]])) == pytest.approx(1.0)

    def test_gelfand_against_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M = random_matrix(rng, 4)
            want = float(np.max(np.abs(np.linalg.eigvals(M))))
            assert spectral_radius(M) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_nilpotent(self):
        M = np.triu(np.ones((4, 4)), k=1)
        assert spectral_radius(M) == 0.0

    def test_never_exceeds_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            M = random_matrix(rng, 3)
            assert spectral_radius(M) <= spectral_norm(M) * (1.0 + 1e-8)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_rotation_scaling(self):
        # equal singular values e^-2
        assert spectral_norm(expm(5.0 * ROTATION_A)) == pytest.approx(
            math.exp(-2.0), rel=1e-10
        )

    def test_zero(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0

    def test_against_numpy(self):
        rng = np.random.default_rng(9)
        for m in (1, 2, 6):
            for _ in range(10):
                M = random_matrix(rng, m)
                want = float(np.linalg.norm(M, 2))
                assert spectral_norm(M) == pytest.approx(want, rel=1e-9)


class TestStacks:
    @staticmethod
    def stack(rng, m):
        # 1-norms from well below to far above theta_13: squaring counts differ
        M = rng.standard_normal((12, m, m))
        norms = np.max(np.sum(np.abs(M), axis=-2), axis=-1)
        targets = _PADE13_THETA * np.geomspace(0.05, 300.0, 12)
        return (M * (targets / norms)[:, None, None]).reshape(3, 4, m, m)

    def test_each_matrix_gets_its_own_bits(self):
        rng = np.random.default_rng(10)
        for m in (1, 2, 5, 8):
            M = self.stack(rng, m)
            E, N, R = expm(M), spectral_norm(M), spectral_radius(M)
            assert E.shape == M.shape and N.shape == R.shape == M.shape[:-2]
            for idx in np.ndindex(M.shape[:-2]):
                assert np.array_equal(E[idx], expm(M[idx]))
                assert N[idx] == spectral_norm(M[idx])
                assert R[idx] == spectral_radius(M[idx])

    def test_empty_stack(self):
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert spectral_norm(np.zeros((0, 3, 3))).shape == (0,)

    def test_against_scipy(self):
        M = self.stack(np.random.default_rng(11), 4)
        want = scipy.linalg.expm(M)
        scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(expm(M) - want) / scale) <= 1e-11

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            spectral_norm(np.zeros(3))
