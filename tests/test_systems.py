import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.testing import assert_allclose

import sgmor.systems

from sgmor import (
    AffineParamSystem,
    Distribution,
    FrequencyRule,
    H2DivergenceError,
    LTISystem,
    arnoldi,
    eval_at,
    freq_projection,
    h2_norm,
    h2_relative_error,
    is_asymptotically_stable,
    is_dissipative,
    pencil_spectrum,
    shifted_solver,
    transfer_eval,
    transfer_on_grid,
)

from _gen import (random_dissipative, random_stable_generalized, random_stable_ode,
                  random_stable_sparse)


def h2_by_gramian(sys):
    """Independent H2 oracle: trace formula with the controllability Gramian."""
    E = np.asarray(sys.E, dtype=float)
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    Ai = np.linalg.solve(E, A)
    Bi = np.linalg.solve(E, B)
    P = sla.solve_continuous_lyapunov(Ai, -Bi @ Bi.T)
    return float(np.sqrt(np.trace(C @ P @ C.T)))


class TestLTISystem:
    def test_vector_b_and_c_normalized(self):
        sys = LTISystem(E=np.eye(3), A=-np.eye(3),
                        B=np.array([1.0, 2.0, 3.0]), C=np.array([[0, 0, 1.0]]))
        assert sys.B.shape == (3, 1)
        assert sys.C.shape == (1, 3)
        assert sys.n == 3
        assert sys.n_in == 1
        assert sys.n_out == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LTISystem(E=np.eye(3), A=-np.eye(2), B=np.ones((3, 1)),
                      C=np.ones((1, 3)))
        with pytest.raises(ValueError):
            LTISystem(E=np.eye(3), A=-np.eye(3), B=np.ones((2, 1)),
                      C=np.ones((1, 3)))
        with pytest.raises(ValueError):
            LTISystem(E=np.eye(3), A=-np.eye(3), B=np.ones((3, 1)),
                      C=np.ones((1, 2)))


class TestAffineFamily:
    def _family(self):
        rng = np.random.default_rng(3)
        n = 4
        dists = (Distribution.uniform(0.8, 1.2), Distribution.gaussian(0.0, 0.1))
        E1 = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n))
        return AffineParamSystem(
            E0=np.eye(n), A0=-2.0 * np.eye(n),
            B0=np.ones((n, 1)), C0=np.ones((1, n)),
            E_parts=(E1, None), A_parts=(None, A1),
            B_parts=(None, None), C_parts=(None, None),
            dists=dists), E1, A1

    def test_eval_at(self):
        aps, E1, A1 = self._family()
        sys = eval_at(aps, [1.1, -0.05])
        assert_allclose(sys.E, np.eye(4) + 1.1 * E1, rtol=1e-14)
        assert_allclose(sys.A, -2.0 * np.eye(4) - 0.05 * A1, rtol=1e-14)
        assert_allclose(sys.B, np.ones((4, 1)))

    def test_nominal_means(self):
        aps, _, _ = self._family()
        assert_allclose(aps.nominal(), [1.0, 0.0])

    def test_validation(self):
        n = 3
        dists = (Distribution.uniform(0, 1),)
        with pytest.raises(ValueError):
            AffineParamSystem(E0=np.eye(n), A0=-np.eye(n), B0=np.ones((n, 1)),
                              C0=np.ones((1, n)), E_parts=(), A_parts=(None,),
                              B_parts=(None,), C_parts=(None,), dists=dists)
        with pytest.raises(ValueError):
            AffineParamSystem(E0=np.eye(n), A0=-np.eye(n), B0=np.ones((n, 1)),
                              C0=np.ones((1, n)), E_parts=(np.eye(2),),
                              A_parts=(None,), B_parts=(None,), C_parts=(None,),
                              dists=dists)
        with pytest.raises(ValueError):
            eval_at(self._family()[0], [1.0])


class TestPencilSpectrum:
    def test_diagonal_with_infinite_mode(self):
        E = np.diag([1.0, 0.0])
        A = np.diag([-2.0, 1.0])
        spectrum = pencil_spectrum(E, A)
        assert spectrum.n_infinite == 1
        assert_allclose(sorted(spectrum.finite.real), [-2.0], atol=1e-12)
        assert_allclose(spectrum.abscissa, -2.0, atol=1e-12)

    def test_standard_case_matches_eig(self):
        rng = np.random.default_rng(11)
        A = random_stable_ode(rng, 8)
        spectrum = pencil_spectrum(np.eye(8), A)
        assert spectrum.n_infinite == 0
        assert_allclose(spectrum.abscissa, np.max(np.linalg.eigvals(A).real),
                        rtol=1e-10, atol=1e-12)

    def test_generalized_matches_construction(self):
        rng = np.random.default_rng(12)
        E, A = random_stable_generalized(rng, 10)
        G_eigs = np.linalg.eigvals(np.linalg.solve(E, A))
        spectrum = pencil_spectrum(E, A)
        assert_allclose(np.sort(spectrum.finite.real), np.sort(G_eigs.real),
                        rtol=1e-8, atol=1e-8)

    def test_singular_pencil_rejected(self):
        E = np.diag([1.0, 0.0])
        A = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            pencil_spectrum(E, A)

    def test_no_finite_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            pencil_spectrum(np.zeros((2, 2)), -np.eye(2))

    def test_stability_predicate(self):
        assert is_asymptotically_stable(np.eye(2), -np.eye(2))
        assert not is_asymptotically_stable(np.eye(2), np.diag([-1.0, 0.5]))
        # a margin shifts the requirement left
        assert not is_asymptotically_stable(np.eye(2), -0.01 * np.eye(2),
                                            margin=0.1)
        assert_allclose(pencil_spectrum(np.eye(2), np.diag([-3.0, -0.5])).abscissa,
                        -0.5, atol=1e-12)

    def test_infinite_modes_do_not_imply_instability(self):
        # index-1 pencil, all finite eigenvalues in the left half-plane
        E = np.diag([1.0, 1.0, 0.0])
        A = np.array([[-1.0, 0.0, 0.3], [0.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
        assert is_asymptotically_stable(E, A)


class TestDissipativity:
    def test_positive_case(self):
        rng = np.random.default_rng(21)
        E, A = random_dissipative(rng, 6)
        chk = is_dissipative(E, A)
        assert chk.ok
        assert chk.lambda_min_E > 0
        assert chk.lambda_max_symA < 0

    def test_indefinite_e_rejected(self):
        chk = is_dissipative(np.diag([1.0, -1.0]), -np.eye(2))
        assert not chk.ok
        assert "positive definite" in chk.reason

    def test_semidefinite_boundary_rejected(self):
        # skew-symmetric A has a zero symmetric part: not strictly dissipative
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        chk = is_dissipative(np.eye(2), A)
        assert not chk.ok
        assert "negative definite" in chk.reason

    def test_nonsymmetric_e_rejected(self):
        E = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert not is_dissipative(E, -np.eye(2)).ok


class TestTransfer:
    def test_scalar_oracle(self):
        # H(s) = 12 / (s + 2); H(i) = 4.8 - 2.4i
        sys = LTISystem(E=np.array([[1.0]]), A=np.array([[-2.0]]),
                        B=np.array([[3.0]]), C=np.array([[4.0]]))
        H = transfer_eval(sys, 1j)
        assert H.shape == (1, 1)
        assert_allclose(H[0, 0], 4.8 - 2.4j, rtol=1e-14)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(31)
        A = random_stable_ode(rng, 12)
        B = rng.standard_normal((12, 2))
        C = rng.standard_normal((3, 12))
        dense = LTISystem(E=np.eye(12), A=A, B=B, C=C)
        sparse = LTISystem(E=sp.csr_matrix(np.eye(12)), A=sp.csr_matrix(A),
                           B=sp.csr_matrix(B), C=sp.csr_matrix(C))
        for s in (1j, 0.5 + 2j, 3.0):
            assert_allclose(transfer_eval(sparse, s), transfer_eval(dense, s),
                            rtol=1e-11)

    def test_grid_shape(self):
        sys = LTISystem(E=np.eye(2), A=-np.eye(2), B=np.ones((2, 1)),
                        C=np.ones((2, 2)))
        H = transfer_on_grid(sys, [0.0, 1.0, 10.0])
        assert H.shape == (3, 2, 1)
        # H(0) = C (-A)^[-1] B = ones(2,2) @ ones(2,1)
        assert_allclose(H[0], 2.0)

    @pytest.mark.parametrize("chunk_bytes", [1, sgmor.systems._CHUNK_BYTES])
    def test_dense_grid_matches_pointwise(self, chunk_bytes, monkeypatch):
        # chunk_bytes = 1 makes every grid point its own stacked solve
        monkeypatch.setattr(sgmor.systems, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(34)
        E, A = random_stable_generalized(rng, 9, margin=0.3)
        sys = LTISystem(E=E, A=A, B=rng.standard_normal((9, 2)),
                        C=rng.standard_normal((3, 9)))
        omegas = FrequencyRule.gauss(40).half()[0]
        ref = np.array([sys.C @ shifted_solver(E, A, 1j * om)(sys.B) for om in omegas])
        assert_allclose(transfer_on_grid(sys, omegas), ref, rtol=1e-13)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_sparse_c_matches_dense_c(self, sparse):
        rng = np.random.default_rng(35)
        E, A = random_stable_sparse(rng, 15)
        if not sparse:
            E, A = E.toarray(), A.toarray()
        B = rng.standard_normal((15, 2))
        C = sp.random(4, 15, density=0.2, random_state=rng, format="csr",
                      data_rvs=rng.standard_normal)
        omegas = FrequencyRule.gauss(20).half()[0]
        H_dense = transfer_on_grid(LTISystem(E=E, A=A, B=B, C=C.toarray()), omegas)
        H_sparse = transfer_on_grid(LTISystem(E=E, A=A, B=B, C=C), omegas)
        assert_allclose(H_sparse, H_dense, rtol=1e-13,
                        atol=1e-14 * np.abs(H_dense).max())

    def test_singular_point_reported(self):
        sys = LTISystem(E=np.array([[1.0]]), A=np.array([[2.0]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        with pytest.raises(ValueError, match="2"):
            transfer_eval(sys, 2.0)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_shifted_solver(sparse):
    fmt = sp.csr_matrix if sparse else np.asarray
    # E singular with a zero row in A as well: s E - A is singular at every s
    E_sing, A_sing = fmt(np.diag([1.0, 1.0, 0.0])), fmt(np.diag([-1.0, -2.0, 0.0]))
    sys = LTISystem(E=E_sing, A=A_sing, B=np.ones((3, 1)), C=np.ones((1, 3)))
    rule = FrequencyRule.gauss(8)
    node = 1j * rule.half()[0][0]
    calls = [
        (0.5 + 2j, lambda: transfer_eval(sys, 0.5 + 2j)),
        (0.7, lambda: arnoldi(E_sing, A_sing, np.ones((3, 1)), 0.7, 2)),
        (node, lambda: freq_projection(E_sing, A_sing, np.eye(3), np.ones((3, 1)), rule)),
        (node, lambda: transfer_on_grid(sys, rule.half()[0])),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        for s, call in calls:
            with pytest.raises(ValueError, match=re.escape(str(s))):
                call()

    rng = np.random.default_rng(33)
    E = rng.standard_normal((6, 6))
    A = rng.standard_normal((6, 6))
    rhs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    s = 0.3 + 1.1j
    K = s * E - A
    solve = shifted_solver(fmt(E), fmt(A), s)
    assert_allclose(solve(rhs), np.linalg.solve(K, rhs), rtol=1e-12)
    assert_allclose(solve(rhs, adjoint=True), np.linalg.solve(K.conj().T, rhs),
                    rtol=1e-12)
    x = shifted_solver(fmt(E), fmt(A), 0.7)(rhs.real)
    assert np.isrealobj(x)
    assert_allclose(x, np.linalg.solve(0.7 * E - A, rhs.real), rtol=1e-12)

    # a zero diagonal entry coupled to one state, like BPF's source-current
    # row: the symmetric-mode pivot must leave the diagonal there
    E = np.diag(np.r_[rng.uniform(1.0, 2.0, 5), 0.0])
    A = -np.eye(6) + np.diag(rng.standard_normal(5), 1) + np.diag(rng.standard_normal(5), -1)
    A[5, :] = A[:, 5] = 0.0
    A[0, 5] = A[5, 0] = 1.0
    K = s * E - A
    assert K[5, 5] == 0.0
    solve = shifted_solver(fmt(E), fmt(A), s)
    assert_allclose(solve(rhs), np.linalg.solve(K, rhs), rtol=1e-12)
    assert_allclose(solve(rhs, adjoint=True), np.linalg.solve(K.conj().T, rhs),
                    rtol=1e-12)


def test_solves_leave_warning_registry_alone():
    # A warning issued from one place prints once, however many solves run
    # between its repeats.  Run in a fresh interpreter so that pytest's own
    # warning capture does not decide what gets printed.
    script = """
import warnings
import numpy as np
import scipy.sparse as sp
from sgmor import shifted_solver
from sgmor.lyapunov import solve_lyap_direct

def probe():
    warnings.warn("probe warning", UserWarning)

A = -2.0 * np.eye(4) + np.diag(np.ones(3), 1)
for _ in range(3):
    probe()
    shifted_solver(np.eye(4), A, 1j)(np.ones(4))
    shifted_solver(sp.eye(4, format="csc"), sp.csc_matrix(A), 1j)(np.ones(4))
    shifted_solver(sp.eye(4, format="csc"), sp.csc_matrix(A), 0.5)(np.ones(4))
    solve_lyap_direct(np.eye(4), A, np.eye(4))
"""
    proc = subprocess.run([sys.executable, "-W", "default", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("probe warning") == 1, proc.stderr


class TestH2Norm:
    def test_scalar_oracle(self):
        # ||1 / (s + 1)||_H2 = 1 / sqrt(2)
        sys = LTISystem(E=np.array([[1.0]]), A=np.array([[-1.0]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        assert_allclose(h2_norm(sys), 1.0 / np.sqrt(2.0), rtol=1e-8)

    def test_matches_gramian_trace(self):
        rng = np.random.default_rng(41)
        for n in (4, 9, 16):
            E, A = random_stable_generalized(rng, n, margin=0.3)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((1, n))
            sys = LTISystem(E=E, A=A, B=B, C=C)
            assert_allclose(h2_norm(sys), h2_by_gramian(sys), rtol=1e-6)

    def test_omega_scale_resolves_narrow_dynamics(self):
        # pole at -a with a tiny: ||1/(s+a)|| = 1/sqrt(2a)
        a = 1.0e-6
        sys = LTISystem(E=np.array([[1.0]]), A=np.array([[-a]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        val = h2_norm(sys, omega_scale=a)
        assert_allclose(val, 1.0 / np.sqrt(2.0 * a), rtol=1e-8)

    def test_unconverged_quadrature_warns(self):
        a = 1.0e-6
        sys = LTISystem(E=np.array([[1.0]]), A=np.array([[-a]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        with pytest.warns(RuntimeWarning):
            h2_norm(sys)

    def test_divergence_detected(self):
        # algebraic system with constant transfer function: no finite H2 norm
        sys = LTISystem(E=np.array([[0.0]]), A=np.array([[1.0]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        with pytest.raises(H2DivergenceError):
            h2_norm(sys)


class TestRelativeError:
    def test_zero_for_identical_systems(self):
        rng = np.random.default_rng(51)
        A = random_stable_ode(rng, 6)
        sys = LTISystem(E=np.eye(6), A=A, B=np.ones((6, 1)), C=np.ones((1, 6)))
        assert h2_relative_error(sys, sys) < 1e-14

    def test_scalar_oracle(self):
        # H = 1/(s+1), H_r = 1/(s+2): ||H - H_r||^2 = 1/2 + 1/4 - 2/3
        f = LTISystem(E=np.array([[1.0]]), A=np.array([[-1.0]]),
                      B=np.array([[1.0]]), C=np.array([[1.0]]))
        r = LTISystem(E=np.array([[1.0]]), A=np.array([[-2.0]]),
                      B=np.array([[1.0]]), C=np.array([[1.0]]))
        expect = np.sqrt((0.5 + 0.25 - 2.0 / 3.0) / 0.5)
        got = h2_relative_error(f, r, freq_rule=FrequencyRule.gauss(400))
        assert_allclose(got, expect, rtol=1e-9)

    def test_io_mismatch_rejected(self):
        f = LTISystem(E=np.eye(2), A=-np.eye(2), B=np.ones((2, 1)),
                      C=np.ones((1, 2)))
        r = LTISystem(E=np.eye(2), A=-np.eye(2), B=np.ones((2, 2)),
                      C=np.ones((1, 2)))
        with pytest.raises(ValueError):
            h2_relative_error(f, r)

