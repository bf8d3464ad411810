import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from sgmor import (
    FrequencyRule,
    freq_projection,
    solve_lyap_direct,
)

from _gen import (
    lyap_one_pencil,
    lyap_residual,
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

    def test_stack_equals_one_by_one(self):
        # criterion-2-style random problems, k pencils of one size per stack
        rng = np.random.default_rng(2024)
        for n in (2, 3, 8, 20, 40):
            E, A = (np.stack(X) for X in zip(*(random_stable_generalized(rng, n)
                                               for _ in range(4))))
            F = np.stack([random_spd(rng, n) for _ in range(4)])
            M = solve_lyap_direct(E, A, F)
            assert M.shape == (4, n, n)
            for Ej, Aj, Fj, Mj in zip(E, A, F, M):
                assert np.array_equal(Mj, solve_lyap_direct(Ej, Aj, Fj))
                assert lyap_residual(Ej, Aj, Fj, Mj) < 1e-10
                # the one-pencil solve the stack replaced factors E, not E^T
                assert_allclose(Mj, lyap_one_pencil(Ej, Aj, Fj),
                                rtol=1e-10, atol=1e-10 * np.abs(Mj).max())

    def test_stack_refusal_names_the_node(self):
        E = np.stack([np.eye(2)] * 3)
        A = np.stack([-np.eye(2)] * 3)
        F = np.stack([np.eye(2)] * 3)
        unstable = A.copy()
        unstable[1] = np.diag([-1.0, 0.5])
        with pytest.raises(ValueError, match="node 1: pencil is not asymptotically stable"):
            solve_lyap_direct(E, unstable, F)
        singular = E.copy()
        singular[2, 1, 1] = 1e-15
        with pytest.raises(ValueError, match="node 2: E is numerically singular"):
            solve_lyap_direct(singular, A, F)
        skew = F.copy()
        skew[0, 0, 1] = 0.4
        with pytest.raises(ValueError, match="node 0: F must be symmetric"):
            solve_lyap_direct(E, A, skew)
        with pytest.raises(ValueError, match="equally sized"):
            solve_lyap_direct(E, A, F[0])

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


def left_factor(E, A, V, rule):
    """W = M E V from freq_projection: with X = I its third product is W^T."""
    return freq_projection(E, A, V, rule, np.eye(E.shape[0]))[2].T


class TestFrequencyProjection:
    def test_scalar_exact(self):
        # E = 1, A = -1, F = 1: M = 1/2, so W = M E V = V / 2
        W = left_factor(np.array([[1.0]]), np.array([[-1.0]]),
                        np.array([[1.0]]), FrequencyRule.gauss(40))
        assert_allclose(W, [[0.5]], rtol=1e-12)

    def test_converges_to_direct(self):
        rng = np.random.default_rng(23)
        n, r = 30, 4
        E, A = random_stable_generalized(rng, n, margin=0.5)
        V = random_orthonormal(rng, n, r)
        W_ref = solve_lyap_direct(E, A, np.eye(n)) @ E @ V
        errs = []
        for k in (8, 32, 128):
            W = left_factor(E, A, V, FrequencyRule.gauss(k))
            errs.append(np.linalg.norm(W - W_ref) / np.linalg.norm(W_ref))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-6

    def test_reduced_pencil_converges_to_direct(self):
        # all three products against V^T E^T M (E V, A V, X) of the direct M
        rng = np.random.default_rng(26)
        n, r = 30, 4
        E, A = random_stable_generalized(rng, n, margin=0.5)
        V = random_orthonormal(rng, n, r)
        X = rng.standard_normal((n, 2))
        WT = V.T @ E.T @ solve_lyap_direct(E, A, np.eye(n))
        for got, ref in zip(freq_projection(E, A, V, FrequencyRule.gauss(128), X),
                            (WT @ E @ V, WT @ A @ V, WT @ X)):
            assert np.linalg.norm(got - ref) < 1e-6 * np.linalg.norm(ref)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(24)
        E, A = random_stable_sparse(rng, 25)
        V = random_orthonormal(rng, 25, 3)
        rule = FrequencyRule.gauss(64)
        W_sp = left_factor(E, A, V, rule)
        W_d = left_factor(E.toarray(), A.toarray(), V, rule)
        assert_allclose(W_sp, W_d, atol=1e-11 * np.abs(W_d).max())

    def test_vector_v_promoted(self):
        W = left_factor(np.eye(2), -np.eye(2), np.array([1.0, 0.0]),
                        FrequencyRule.gauss(32))
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
