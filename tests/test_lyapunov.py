import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from sgmor import (
    FrequencyRule,
    freq_projection,
    lyap_residual,
    solve_lyap_direct,
)

from _gen import (
    random_dissipative,
    random_orthonormal,
    random_spd,
    random_stable_generalized,
    random_stable_sparse,
)


class TestDirectSolve:
    def test_scalar_oracle(self):
        # -3 m 2 + 2 m (-3) + 5 = 0  =>  m = 5 / 12
        M = solve_lyap_direct(np.array([[2.0]]), np.array([[-3.0]]),
                              np.array([[5.0]]))
        assert_allclose(M, [[5.0 / 12.0]], rtol=1e-14)

    def test_random_problems_residual_and_spd(self):
        rng = np.random.default_rng(17)
        for n in (3, 8, 20, 40):
            E, A = random_stable_generalized(rng, n)
            F = random_spd(rng, n)
            M = solve_lyap_direct(E, A, F)
            assert lyap_residual(E, A, F, M) < 1e-10
            assert_allclose(M, M.T, atol=1e-12 * np.abs(M).max())
            assert np.linalg.eigvalsh(M).min() > 0

    def test_sparse_inputs_accepted(self):
        rng = np.random.default_rng(18)
        E, A = random_stable_sparse(rng, 15)
        F = sp.identity(15, format="csr")
        M = solve_lyap_direct(E, A, F)
        assert lyap_residual(E, A, F, M) < 1e-10

    def test_unstable_pencil_rejected(self):
        # a real unstable eigenvalue, and a right-half-plane complex pair
        # 0.1 +- 1i that forms a 2x2 block of the real Schur form
        for A in (np.diag([1.0, -2.0]), np.array([[0.1, 1.0], [-1.0, 0.1]])):
            with pytest.raises(ValueError, match="stab"):
                solve_lyap_direct(np.eye(2), A, np.eye(2))

    def test_singular_e_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            solve_lyap_direct(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2))

    def test_asymmetric_f_rejected(self):
        F = np.array([[1.0, 0.4], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyap_direct(np.eye(2), -np.eye(2), F)

    def test_dissipativity_transport(self):
        # (E^T M E, E^T M A) is dissipative whenever the solve succeeds with
        # F positive definite
        rng = np.random.default_rng(19)
        E, A = random_stable_generalized(rng, 12)
        M = solve_lyap_direct(E, A, np.eye(12))
        from sgmor import is_dissipative
        chk = is_dissipative(E.T @ M @ E, E.T @ M @ A)
        assert chk.ok


class TestFrequencyProjection:
    def test_scalar_exact(self):
        # E = 1, A = -1, F = 2: M = 1, so W = M E V = V
        W = freq_projection(np.array([[1.0]]), np.array([[-1.0]]),
                            np.array([[2.0]]), np.array([[1.0]]),
                            FrequencyRule.gauss(40))
        assert_allclose(W, [[1.0]], rtol=1e-12)

    def test_converges_to_direct(self):
        rng = np.random.default_rng(23)
        n, r = 30, 4
        E, A = random_stable_generalized(rng, n, margin=0.5)
        F = random_spd(rng, n)
        V = random_orthonormal(rng, n, r)
        W_ref = solve_lyap_direct(E, A, F) @ E @ V
        errs = []
        for k in (8, 32, 128):
            W = freq_projection(E, A, F, V, FrequencyRule.gauss(k))
            errs.append(np.linalg.norm(W - W_ref) / np.linalg.norm(W_ref))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-6

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(24)
        E, A = random_stable_sparse(rng, 25)
        F = np.eye(25)
        V = random_orthonormal(rng, 25, 3)
        rule = FrequencyRule.gauss(64)
        W_sp = freq_projection(E, A, F, V, rule)
        W_d = freq_projection(E.toarray(), A.toarray(), F, V, rule)
        assert_allclose(W_sp, W_d, atol=1e-11 * np.abs(W_d).max())

    def test_vector_v_promoted(self):
        W = freq_projection(np.eye(2), -np.eye(2), np.eye(2),
                            np.array([1.0, 0.0]), FrequencyRule.gauss(32))
        assert W.shape == (2, 1)


class TestDiagnostics:
    def test_residual_detects_wrong_solution(self):
        rng = np.random.default_rng(25)
        E, A = random_dissipative(rng, 6)
        F = np.eye(6)
        M = solve_lyap_direct(E, A, F)
        assert lyap_residual(E, A, F, M) < 1e-11
        assert lyap_residual(E, A, F, M + 0.1 * np.eye(6)) > 1e-3
        with pytest.raises(ValueError):
            lyap_residual(E, A, np.zeros((6, 6)), M)
