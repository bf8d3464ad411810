import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import sgmor.systems

from sgmor import (
    AffineParamSystem,
    Distribution,
    FrequencyRule,
    H2DivergenceError,
    LTISystem,
    RunConfig,
    arnoldi,
    eval_at,
    freq_projection,
    h2_norm,
    h2_relative_error,
    is_dissipative,
    load_system,
    monte_carlo_rule,
    pencil_spectrum,
    reduce,
    save_system,
    shifted_solver,
    technique_ii,
    transfer_on_grid,
)
from sgmor.bench import _family, project, stabilized_basis
from sgmor.systems import NodeKronSum

from _gen import (random_dissipative, random_stable_generalized, random_stable_ode,
                  random_stable_sparse, transfer_eval)


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

    def test_stacked_sum_equals_one_point_sums(self):
        # rows of a (k, q) stack are dense and bit-identical to eval_at, also
        # for a sparse part and for B, whose parts are all unset here
        aps, E1, _ = self._family()
        aps.E_parts = (sp.csr_matrix(E1), None)
        nodes = np.random.default_rng(4).standard_normal((5, 2))
        for name in ("E", "A", "B"):
            const = getattr(aps, f"{name}0")
            stack = sgmor.systems._affine_sum(const, getattr(aps, f"{name}_parts"), nodes)
            assert stack.shape == (5,) + const.shape
            for mu, row in zip(nodes, stack):
                one = getattr(eval_at(aps, mu), name)
                assert np.array_equal(row, one.toarray() if sp.issparse(one) else one)

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

    @pytest.mark.parametrize("n", [2, 6, 30])
    @pytest.mark.parametrize("singular_e", [False, True])
    def test_bits_match_scipy_eig(self, n, singular_e):
        rng = np.random.default_rng(n)
        E, A = rng.standard_normal((2, n, n))
        if singular_e:
            E[:, -1] = 0.0  # an infinite eigenvalue
        alpha, beta = sla.eig(A, E, right=False, homogeneous_eigvals=True)
        tol = sgmor.systems.INFINITE_EIG_RTOL * max(np.linalg.norm(E),
                                                     np.linalg.norm(A))
        finite = np.abs(beta) >= tol
        spectrum = pencil_spectrum(E, A)
        assert spectrum.n_infinite == np.count_nonzero(~finite) >= singular_e
        assert np.array_equal(spectrum.finite, alpha[finite] / beta[finite])

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            pencil_spectrum(np.eye(2), np.diag([-1.0, np.nan]))

    def test_singular_pencil_rejected(self):
        E = np.diag([1.0, 0.0])
        A = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            pencil_spectrum(E, A)

    def test_no_finite_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            pencil_spectrum(np.zeros((2, 2)), -np.eye(2))

    def test_stability_predicate(self):
        assert pencil_spectrum(np.eye(2), -np.eye(2)).abscissa < 0
        assert not pencil_spectrum(np.eye(2), np.diag([-1.0, 0.5])).abscissa < 0
        # a margin shifts the requirement left
        assert not pencil_spectrum(np.eye(2), -0.01 * np.eye(2)).abscissa < -0.1
        assert_allclose(pencil_spectrum(np.eye(2), np.diag([-3.0, -0.5])).abscissa,
                        -0.5, atol=1e-12)

    def test_infinite_modes_do_not_imply_instability(self):
        # index-1 pencil, all finite eigenvalues in the left half-plane
        E = np.diag([1.0, 1.0, 0.0])
        A = np.array([[-1.0, 0.0, 0.3], [0.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
        assert pencil_spectrum(E, A).abscissa < 0


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
        (node, lambda: freq_projection(E_sing, A_sing, np.ones((3, 1)), rule, np.ones((3, 1)))),
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


def test_dense_solve_equals_lu_solve():
    # the dense backend calls getrs itself: bit for bit what lu_solve gives,
    # in the type of the factors and the right-hand side, leaving rhs intact
    rng = np.random.default_rng(39)
    E, A = rng.standard_normal((2, 7, 7))
    for s in (0.7, 0.3 + 1.1j):
        lu = sla.lu_factor(s * E - A)
        solve = shifted_solver(E, A, s)
        for rhs in (rng.standard_normal(7), rng.standard_normal((7, 3)),
                    rng.standard_normal(7) + 1j * rng.standard_normal(7)):
            kept = rhs.copy()
            x = solve(rhs)
            ref = sla.lu_solve(lu, rhs)
            assert x.dtype == ref.dtype
            assert np.array_equal(x, ref)
            assert np.array_equal(rhs, kept)


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


@pytest.fixture(scope="module")
def msd1_technique_ii():
    """MSD degree 1 re-assembled by technique ii, and its densified copy."""
    cfg = RunConfig(model="msd", degree=1, technique="ii")
    aps, basis, _ = project(cfg)
    fom = technique_ii(aps, basis, monte_carlo_rule(aps.dists, 30, seed=7))
    dense = LTISystem(E=fom.E.toarray(), A=fom.A.toarray(), B=fom.B, C=fom.C)
    return cfg, fom, dense


class TestNodeKronSumSolver:
    @pytest.mark.parametrize("kind", ["s0", "imaginary"])
    def test_matches_dense_solve(self, msd1_technique_ii, kind):
        cfg, fom, dense = msd1_technique_ii
        assert isinstance(fom.E, NodeKronSum) and isinstance(fom.A, NodeKronSum)
        s = cfg.expansion_point if kind == "s0" else 0.9j
        K = s * dense.E - dense.A
        rng = np.random.default_rng(36)
        rhs = rng.standard_normal(fom.n)
        solve = shifted_solver(fom.E, fom.A, s)
        x = solve(rhs)
        assert np.isrealobj(x) == (kind == "s0")
        assert_allclose(x, np.linalg.solve(K, rhs), rtol=1e-10,
                        atol=1e-10 * np.abs(x).max())

    @pytest.mark.parametrize("name, value",
                             [("_GMRES_MAXITER", 1), ("_GMRES_RTOL", 1e-16)],
                             ids=["iteration-cap", "unattainable-rtol"])
    def test_unconverged_solve_names_the_shift(self, msd1_technique_ii, monkeypatch,
                                               name, value):
        # at 1e-16 the residual estimate gets there but the true residual,
        # about 6e-15, does not: the solve must raise, not return that x
        _, fom, _ = msd1_technique_ii
        monkeypatch.setattr(sgmor.systems, name, value)
        s = 0.9j
        solve = shifted_solver(fom.E, fom.A, s)
        with pytest.raises(ValueError, match=re.escape(str(s))):
            solve(np.ones(fom.n))

    @pytest.mark.parametrize("chunk_bytes", [1, sgmor.systems._CHUNK_BYTES])
    def test_complex_block_product(self, msd1_technique_ii, monkeypatch, chunk_bytes):
        # a complex block meets the real S (and a real X) in real GEMMs
        monkeypatch.setattr(sgmor.systems, "_CHUNK_BYTES", chunk_bytes)
        _, fom, dense = msd1_technique_ii
        rng = np.random.default_rng(38)
        V = rng.standard_normal((fom.n, 3)) + 1j * rng.standard_normal((fom.n, 3))
        s = 0.9j
        K = NodeKronSum(fom.E.S, fom.E.w, s * fom.E.X - fom.A.X)
        for op, ref in ((fom.E, dense.E), (K, s * dense.E - dense.A)):
            for block in (V, V[:, 0], np.asfortranarray(V)):
                assert_allclose(op @ block, ref @ block, rtol=1e-13,
                                atol=1e-13 * np.abs(ref).max() * np.abs(block).max())
        assert_allclose(fom.E.toarray() @ V, dense.E @ V, rtol=1e-13)

    def test_one_gram_inverse_per_pencil(self, msd1_technique_ii, monkeypatch):
        # G = S^T diag(w) S is inverted once for the whole grid, and the
        # node matrices X_k once per point, as one stacked (k, n, n) inverse
        _, fom, _ = msd1_technique_ii
        (k, m), n = fom.E.S.shape, fom.E.X.shape[1]
        assert m != n
        inv = np.linalg.inv
        shapes = []

        def counting_inv(M):
            shapes.append(M.shape)
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        omegas = FrequencyRule.gauss(16).half()[0]
        transfer_on_grid(fom, omegas)
        assert shapes.count((m, m)) == 1
        assert shapes.count((k, n, n)) == omegas.size
        assert len(shapes) == 1 + omegas.size

    def test_singular_node_matrix_names_the_shift(self, msd1_technique_ii):
        # one singular X_k makes the node-wise preconditioner undefined
        cfg, fom, _ = msd1_technique_ii
        X = fom.A.X.copy()
        X[3] = 0.0
        A = NodeKronSum(fom.A.S, fom.A.w, X)
        E = NodeKronSum(fom.A.S, fom.A.w, 0.0 * X)
        s = cfg.expansion_point
        with pytest.raises(ValueError, match=re.escape(str(s))):
            shifted_solver(E, A, s)

    def test_operators_on_different_nodes_refused(self, msd1_technique_ii):
        _, fom, _ = msd1_technique_ii
        A = NodeKronSum(fom.A.S.copy(), fom.A.w, fom.A.X)
        with pytest.raises(ValueError, match="different nodes or weights"):
            shifted_solver(fom.E, A, 0.5)

    def test_singular_gram_matrix_names_the_shift(self, msd1_technique_ii, monkeypatch):
        # One node at the parameter means, where every degree-1 chaos
        # polynomial vanishes, makes G = S^T diag(w) S exactly singular; the
        # first 10 of the 30 nodes leave it singular only to rounding
        # (lambda_min / lambda_max about -1e-16, for m = 18), and inv does not
        # raise.  assemble_via_quadrature refuses such rules, so the
        # operators are built directly.  Both are refused before GMRES runs.
        cfg, fom, _ = msd1_technique_ii
        m = fom.E.S.shape[1]
        gmres_calls = []
        monkeypatch.setattr(sgmor.systems, "_gmres",
                            lambda *args: gmres_calls.append(args))
        s = cfg.expansion_point
        omegas = FrequencyRule.gauss(8).half()[0]
        for S, w in ((np.eye(1, m), np.ones(1)), (fom.E.S[:10], fom.E.w[:10])):
            k = len(w)
            lti = LTISystem(E=NodeKronSum(S, w, fom.E.X[:k]),
                            A=NodeKronSum(S, w, fom.A.X[:k]), B=fom.B, C=fom.C)
            with pytest.raises(ValueError, match=re.escape(str(s))):
                shifted_solver(lti.E, lti.A, s)
            with pytest.raises(ValueError, match=re.escape(str(1j * omegas[0]))):
                transfer_on_grid(lti, omegas)
        assert gmres_calls == []

    def test_transfer_and_h2_error_match_dense(self, msd1_technique_ii, monkeypatch):
        cfg, fom, dense = msd1_technique_ii
        arn = arnoldi(dense.E, dense.A, dense.B, cfg.expansion_point, 8)
        rom = reduce(dense, arn.V)
        omegas = FrequencyRule.gauss(40).half()[0]
        H_dense = transfer_on_grid(dense, omegas)
        err_dense = h2_relative_error(dense, rom)

        def densify(self):
            raise AssertionError("a NodeKronSum pencil was densified")

        monkeypatch.setattr(NodeKronSum, "toarray", densify)
        assert_allclose(transfer_on_grid(fom, omegas), H_dense, rtol=1e-10,
                        atol=1e-10 * np.abs(H_dense).max())
        assert_allclose(h2_relative_error(fom, rom), err_dense, rtol=1e-10)


def msd2_technique_ii(quad_nodes):
    """MSD degree 2 re-assembled by technique ii at quad_nodes nodes and the
    run's seed: the run's configuration and the re-assembled system."""
    cfg = RunConfig(model="msd", degree=2, technique="ii", quad_nodes=quad_nodes,
                    with_errors=False)
    aps, basis = _family(cfg.model, cfg.degree, cfg.beta)
    quad = monte_carlo_rule(aps.dists, quad_nodes, seed=cfg.seed)
    return cfg, technique_ii(aps, basis, quad)


class TestNodeWisePreconditioner:
    def test_arnoldi_solves_take_few_products(self, monkeypatch):
        # the mean-based G^-1 (x) Kbar^-1 took 19-20 operator products per
        # solve here; the node-wise one takes 7-9
        cfg, fom = msd2_technique_ii(200)
        gmres = sgmor.systems._gmres
        products = []

        class Counting:
            def __init__(self, K):
                self.K, self.dtype, self.count = K, K.dtype, 0

            def __matmul__(self, v):
                self.count += 1
                return self.K @ v

        def counting_gmres(K, precondition, b):
            op = Counting(K)
            x = gmres(op, precondition, b)
            products.append(op.count)
            return x

        monkeypatch.setattr(sgmor.systems, "_gmres", counting_gmres)
        arnoldi(fom.E, fom.A, fom.B, cfg.expansion_point, cfg.r_max)
        assert len(products) == cfg.r_max
        assert max(products) <= 12

    def test_reassembly_distance_on_the_imaginary_axis(self):
        # every point of the 200-node rule converges within the unchanged
        # cap; the mean-based preconditioner missed it at 13 of the 100
        assert sgmor.systems._GMRES_MAXITER == 60
        # 342 = 2 m, the default node count of the m = 171 polynomials
        cfg, transformed = msd2_technique_ii(342)
        projected = project(cfg)[2]
        assert transformed.E.S.shape == (342, 171)
        err = h2_relative_error(projected, transformed, FrequencyRule.gauss(200))
        assert np.isfinite(err)


def per_shift_solver(E, A, s):
    """The reference for _SparsePencil: every shift ordered and factored anew
    by _SYMMETRIC_SPLU, with no saved ordering and no union pattern."""
    K = s * sp.csc_matrix(E, dtype=complex) - sp.csc_matrix(A, dtype=complex)
    lu = spla.splu(K.tocsc(), **sgmor.systems._SYMMETRIC_SPLU)
    return lambda rhs, adjoint=False: lu.solve(rhs, trans="H" if adjoint else "N")


def per_shift_transfer(sys, omegas):
    return np.array([sys.C @ per_shift_solver(sys.E, sys.A, 1j * om)(sys.B)
                     for om in omegas])


def per_shift_projection(E, A, V, rule):
    W = np.zeros(V.shape)
    for om, wt in zip(*rule.half()):
        solve = per_shift_solver(E, A, 1j * om)
        W += wt * solve(solve(E @ V), adjoint=True).real
    return W / (2.0 * np.pi)


@pytest.fixture(scope="module")
def sparse_pencils():
    """MSD degrees 2 and 1, whose pencils split into second-order form, BPF
    degree 1 with its zero source-current diagonal, and MSD degree 1 as a
    dense pencil, whose solver keeps the natural order."""
    out = {}
    for key, model, degree in (("msd", "msd", 2), ("msd1", "msd", 1), ("bpf", "bpf", 1),
                               ("dense", "msd", 1)):
        cfg = RunConfig(model=model, degree=degree)
        fom = project(cfg)[2]
        if key == "dense":
            fom = LTISystem(E=fom.E.toarray(), A=fom.A.toarray(), B=fom.B, C=fom.C)
        V = np.linalg.qr(np.random.default_rng(37).standard_normal((fom.n, 4)))[0]
        out[key] = (cfg, fom, V)
    return out


class TestSparsePencil:
    @pytest.mark.parametrize("model", ["msd", "msd1", "bpf", "dense"])
    @pytest.mark.parametrize("n_nodes", [16, 15], ids=["even", "odd"])
    def test_matches_per_shift_factorization(self, sparse_pencils, model, n_nodes):
        # an odd rule starts at omega = 0, where 0 E - A drops E's entries
        cfg, fom, V = sparse_pencils[model]
        rule = FrequencyRule.gauss(n_nodes, omega_scale=cfg.stab_scale)
        omegas = rule.half()[0]
        assert (omegas[0] == 0.0) == bool(n_nodes % 2)
        H, H_ref = transfer_on_grid(fom, omegas), per_shift_transfer(fom, omegas)
        assert_allclose(H, H_ref, rtol=1e-12, atol=1e-12 * np.abs(H_ref).max())
        # the third product is W^T X: X = I reads W^T itself on BPF degree 1,
        # and a few random columns pin it on MSD degree 2 at a fraction of
        # the 1710 right-hand sides per node that X = I would cost
        X = (sp.identity(fom.n, format="csr") if model == "bpf"
             else np.random.default_rng(41).standard_normal((fom.n, 3)))
        WX = freq_projection(fom.E, fom.A, V, rule, X)[2]
        WX_ref = per_shift_projection(fom.E, fom.A, V, rule).T @ X
        assert_allclose(WX, WX_ref, rtol=1e-12, atol=1e-12 * np.abs(WX_ref).max())

    @pytest.mark.parametrize("model", ["msd", "msd1", "bpf", "dense"])
    def test_solve_shifts_in_the_pencils_row_order(self, sparse_pencils, model):
        # row a of each solution is natural row solver.rows[a]; a second
        # loop on the ordered pencil factors its first shift reordered too
        cfg, fom, V = sparse_pencils[model]
        shifts = 1j * FrequencyRule.gauss(15, omega_scale=cfg.stab_scale).half()[0]
        rhs = np.hstack([fom.E @ V, fom.B])
        solver = sgmor.systems._pencil(fom.E, fom.A)
        for part in (shifts, shifts[:2]):
            solutions = list(solver.solve_shifts(part, rhs))
            assert len(solutions) == len(part)
            assert (solver.rows is None) == (model == "dense")
            rows = slice(None) if solver.rows is None else solver.rows
            for s, Y in zip(part, solutions):
                ref = per_shift_solver(fom.E, fom.A, s)(rhs)[rows]
                assert_allclose(Y, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("model, degree", [("msd", 1), ("bpf", 1)])
    def test_transfer_matches_dense_path(self, model, degree):
        # the sparse loop meets C's permuted columns; the dense path solves
        # stacked pencils in the natural order
        cfg = RunConfig(model=model, degree=degree)
        fom = project(cfg)[2]
        dense = LTISystem(E=fom.E.toarray(), A=fom.A.toarray(), B=fom.B, C=fom.C)
        omegas = FrequencyRule.gauss(15, omega_scale=cfg.stab_scale).half()[0]
        H, H_dense = transfer_on_grid(fom, omegas), transfer_on_grid(dense, omegas)
        assert_allclose(H, H_dense, rtol=1e-12, atol=1e-12 * np.abs(H_dense).max())

    @pytest.mark.parametrize("n_nodes", [16, 15], ids=["even", "odd"])
    def test_one_ordering_per_call(self, sparse_pencils, monkeypatch, n_nodes):
        cfg, fom, V = sparse_pencils["msd"]
        splu = spla.splu
        calls = []

        def counting_splu(K, **options):
            calls.append((options["permc_spec"], K.nnz))
            return splu(K, **options)

        monkeypatch.setattr(spla, "splu", counting_splu)
        rule = FrequencyRule.gauss(n_nodes, omega_scale=cfg.stab_scale)
        assert (abs(fom.E) + abs(fom.A)).nnz == 8532
        # the pencil splits: positions are states 0-4 of each chaos block of
        # 10, velocities 5-9, and s^2 M + s D + K is what SuperLU factors
        pos = (10 * np.arange(fom.n // 10)[:, None] + np.arange(5)).ravel()
        vel = pos + 5
        E_vel, A_vel = fom.E[vel], fom.A[vel]
        union = (abs(E_vel[:, vel]) + abs(A_vel[:, vel]) + abs(A_vel[:, pos])).nnz
        assert union == 4599
        for call in (lambda: transfer_on_grid(fom, rule.half()[0]),
                     lambda: freq_projection(fom.E, fom.A, V, rule, fom.B)):
            calls.clear()
            call()
            # one factorization per shift, and the one minimum-degree
            # ordering is of the pattern of |M| + |D| + |K|, even at s = 0
            assert len(calls) == len(rule.half()[0])
            assert calls[0] == ("MMD_AT_PLUS_A", union)
            assert {spec for spec, _ in calls[1:]} == {"NATURAL"}

    def test_real_shift_ordering_follows_the_diagonal(self, sparse_pencils, monkeypatch):
        # a real shift (Arnoldi's) takes the minimum-degree ordering when the
        # diagonal of K = s E - A has no zero, as on MSD, and SuperLU's
        # defaults otherwise, as on BPF with its zero source-current rows
        splu = spla.splu
        calls = []

        def counting_splu(K, **options):
            calls.append(options.get("permc_spec"))
            return splu(K, **options)

        monkeypatch.setattr(spla, "splu", counting_splu)
        rng = np.random.default_rng(39)
        for model, spec in (("msd", "MMD_AT_PLUS_A"), ("bpf", None)):
            cfg, fom, _ = sparse_pencils[model]
            s = cfg.expansion_point
            K = sp.csc_matrix(s * fom.E - fom.A)
            rhs = rng.standard_normal((fom.n, 2))
            calls.clear()
            x = shifted_solver(fom.E, fom.A, s)(rhs)
            assert calls == [spec]
            if spec is None:  # BPF's pivots are the defaults' to the bit
                assert np.array_equal(x, splu(K).solve(rhs))
            else:
                x_ref = np.linalg.solve(K.toarray(), rhs)
                assert_allclose(x, x_ref, rtol=1e-12, atol=1e-12 * np.abs(x_ref).max())
        # one zeroed diagonal entry keeps the defaults, and a real shift after
        # a complex one, whose ordering has permuted the pencil's data,
        # still solves the caller's s E - A
        E, A = random_stable_sparse(rng, 15)
        A = A.tolil()
        A[3, 3] = 0.7 * E[3, 3]
        A = A.tocsr()
        assert (0.7 * E - A).diagonal()[3] == 0.0
        rhs = rng.standard_normal((15, 2))
        solver = sgmor.systems._pencil(E, A)
        for s, spec in ((0.4 + 1.3j, "MMD_AT_PLUS_A"), (0.7, None)):
            K = s * E.toarray() - A.toarray()
            calls.clear()
            solve = solver(s)
            assert calls == [spec]
            assert_allclose(solve(rhs), np.linalg.solve(K, rhs), rtol=1e-12)

    def test_singular_later_shift_names_it(self):
        # E = I with the block [[0, w], [-w, 0]] in A: s E - A is exactly
        # singular at s = i w, the third node, and regular at the others
        rule = FrequencyRule.gauss(8)
        omegas = rule.half()[0]
        w = omegas[2]
        A = sp.block_diag([sp.diags([-1.0, -2.0]), sp.csr_matrix([[0.0, w], [-w, 0.0]])],
                          format="csr")
        E = sp.identity(4, format="csr")
        lti = LTISystem(E=E, A=A, B=np.ones((4, 1)), C=np.ones((1, 4)))
        for call in (lambda: transfer_on_grid(lti, omegas),
                     lambda: freq_projection(E, A, np.eye(4)[:, :2], rule, np.ones((4, 1)))):
            with pytest.raises(ValueError, match=re.escape(str(1j * w))):
                call()


def perturbed(M, at, value):
    """A CSR copy of M with one entry set."""
    M = M.tolil(copy=True)
    M[at] = value
    return M.tocsr()


class TestSecondOrderPencil:
    """MSD's pencil solved at half the dimension, v = s q - b_1 and
    (s^2 M + s D + K) q = b_2 + (s M + D) b_1, split where E and A show it."""

    @pytest.mark.parametrize("model", ["msd1", "msd"])
    def test_matches_first_order_solve(self, sparse_pencils, model):
        cfg, fom, _ = sparse_pencils[model]
        solver = sgmor.systems._pencil(fom.E, fom.A)
        assert isinstance(solver, sgmor.systems._SecondOrderPencil)
        rhs = np.random.default_rng(43).standard_normal((fom.n, 3))
        # a real shift (Arnoldi's), omega = 0 (an odd rule's first node) and
        # one mid-band
        for s in (cfg.expansion_point, 0j, 1.3j):
            x = solver(s)(rhs)
            ref = spla.spsolve(sp.csc_matrix(s * fom.E - fom.A), rhs)
            assert np.isrealobj(x) == np.isrealobj(s)
            assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        # the largest nodes in use, technique i's and the error grid's, where
        # eliminating v costs about eps |s| in it: solved alone and in a loop
        for n_nodes, scale in ((64, cfg.stab_scale), (200, cfg.omega_scale)):
            s = 1j * FrequencyRule.gauss(n_nodes, omega_scale=scale).half()[0].max()
            assert abs(s) > 900
            K = sp.csc_matrix(s * fom.E - fom.A)
            looped = np.empty_like(rhs, dtype=complex)
            looped[solver.rows] = next(solver.solve_shifts([s], rhs))
            for x in (solver(s)(rhs), looped):
                assert np.linalg.norm(K @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("case, splits", [
        ("msd1", True), ("reloaded", True), ("inexact-one", False), ("extra-entry", False),
        ("velocity-row-entry", False), ("bpf1", False), ("bpf2", False)])
    def test_split_only_where_it_holds_exactly(self, sparse_pencils, tmp_path, case, splits):
        # MSD degree 1 splits, also saved and reloaded from Matrix Market;
        # a position row's E entry of 1 + 2^-52, a second stored entry in a
        # position row, an E entry in a velocity row at a position column
        # and BPF's regularized pencils stay in first-order form
        _, fom, _ = sparse_pencils["msd1"]
        E, A = fom.E, fom.A
        if case == "reloaded":
            loaded = load_system(save_system(fom, tmp_path / "msd1"))[0]
            E, A = loaded.E, loaded.A
        elif case == "inexact-one":
            E = perturbed(E, (0, 0), 1.0 + 2.0 ** -52)
        elif case == "extra-entry":
            A = perturbed(A, (0, 0), -0.5)
        elif case == "velocity-row-entry":
            E = perturbed(E, (5, 0), 0.25)
        elif case.startswith("bpf"):
            fom = project(RunConfig(model="bpf", degree=int(case[-1])))[2]
            E, A = fom.E, fom.A
        solver = sgmor.systems._pencil(E, A)
        assert isinstance(solver, sgmor.systems._SecondOrderPencil) == splits
        if not splits:
            assert type(solver) is sgmor.systems._SparsePencil
        rhs = np.random.default_rng(44).standard_normal((fom.n, 2))
        ref = spla.spsolve(sp.csc_matrix(0.9j * E - A), rhs)
        assert_allclose(solver(0.9j)(rhs), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_singular_polynomial_names_the_shift(self):
        # E = I and A = [[0, 1], [-w^2, 0]] split into S(s) = s^2 + w^2, which
        # is exactly singular at s = i w: alone at w = 1, and at the third
        # node in the loop of the grid and of the frequency projection
        E = sp.identity(2, format="csr")
        solver = sgmor.systems._pencil(E, sp.csr_matrix([[0.0, 1.0], [-1.0, 0.0]]))
        assert isinstance(solver, sgmor.systems._SecondOrderPencil)
        with pytest.raises(ValueError, match=re.escape(str(1j))):
            solver(1j)
        rule = FrequencyRule.gauss(8)
        omegas = rule.half()[0]
        w = omegas[2]
        A = sp.csr_matrix([[0.0, 1.0], [-w * w, 0.0]])
        assert isinstance(sgmor.systems._pencil(E, A), sgmor.systems._SecondOrderPencil)
        lti = LTISystem(E=E, A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))
        for call in (lambda: transfer_on_grid(lti, omegas),
                     lambda: freq_projection(E, A, np.eye(2)[:, :1], rule, np.ones((2, 1)))):
            with pytest.raises(ValueError, match=re.escape(str(1j * w))):
                call()


class TestTechniqueIReducedPencil:
    """Technique i's reduced pencil, made from forward solves alone, against
    the left-factor path it replaced: W = M E V from a forward and an
    adjoint solve per node (per_shift_projection), then W^T (E V, A V, B)."""

    @pytest.mark.parametrize("model, degree", [("msd", 1), ("msd", 2), ("bpf", 1)])
    def test_matches_left_factor_projection(self, model, degree):
        cfg = RunConfig(model=model, degree=degree, technique="i")
        (_, _, fom), arn, outcome = stabilized_basis(cfg, timings={})
        rom = outcome.reduced
        rule = FrequencyRule.gauss(cfg.nodes, omega_scale=cfg.stab_scale)
        ref = reduce(fom, arn.V, per_shift_projection(fom.E, fom.A, arn.V, rule))
        for got, want in ((rom.E, ref.E), (rom.A, ref.A), (rom.B, ref.B), (rom.C, ref.C)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(rom.E, rom.E.T)

    def test_one_forward_solve_per_node(self, monkeypatch):
        # each complex factorization solves once, forward, for E V and B,
        # at half the dimension: MSD's pencil splits into second-order form
        splu = spla.splu
        solves = []

        class CountingLU:
            def __init__(self, lu, complex_shift):
                self.lu, self.complex_shift = lu, complex_shift

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, rhs, trans="N"):
                solves.append((self.complex_shift, trans, rhs.shape))
                return self.lu.solve(rhs, trans=trans)

        monkeypatch.setattr(spla, "splu", lambda K, **options: CountingLU(
            splu(K, **options), K.dtype.kind == "c"))
        cfg = RunConfig(model="msd", degree=1, technique="i", with_errors=False)
        (_, _, fom), _, _ = stabilized_basis(cfg, timings={})
        nodes = len(FrequencyRule.gauss(cfg.nodes).half()[0])
        assert {trans for _, trans, _ in solves} == {"N"}
        assert ([shape for complex_shift, _, shape in solves if complex_shift]
                == [(fom.n // 2, cfg.r_max + 1)] * nodes)


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

