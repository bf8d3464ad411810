import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import sgmor.galerkin
from sgmor import (
    AffineParamSystem,
    Distribution,
    QuadratureRule,
    assemble,
    assemble_output,
    assemble_via_quadrature,
    build_basis,
    eval_at,
    eval_basis,
    monte_carlo_rule,
    tensor_rule,
)


def one_param_family(rng, n=3):
    """A(mu) = A0 + mu A1 on a single uniform parameter over [-1, 1]."""
    A0 = rng.standard_normal((n, n))
    A1 = rng.standard_normal((n, n))
    B1 = rng.standard_normal((n, 1))
    C1 = rng.standard_normal((1, n))
    aps = AffineParamSystem(
        E0=np.eye(n), A0=A0, B0=np.ones((n, 1)), C0=np.ones((1, n)),
        E_parts=(None,), A_parts=(A1,), B_parts=(B1,), C_parts=(C1,),
        dists=(Distribution.uniform(-1.0, 1.0),))
    return aps, A0, A1, B1, C1


class TestAssembly:
    def test_single_parameter_block_structure(self):
        # degree 1, one uniform parameter: the coupling block is A1 / sqrt(3)
        rng = np.random.default_rng(7)
        aps, A0, A1, B1, C1 = one_param_family(rng)
        basis = build_basis(aps.dists, 1)
        gal = assemble(aps, basis)
        c = 1.0 / np.sqrt(3.0)
        Ahat = gal.A.toarray()
        n = 3
        assert gal.dim == 2 * n
        assert_allclose(Ahat[:n, :n], A0, rtol=1e-14)
        assert_allclose(Ahat[n:, n:], A0, rtol=1e-14)
        assert_allclose(Ahat[:n, n:], c * A1, rtol=1e-13)
        assert_allclose(Ahat[n:, :n], c * A1, rtol=1e-13)
        Bhat = np.asarray(gal.B)
        assert_allclose(Bhat[:n], np.ones((n, 1)))
        assert_allclose(Bhat[n:], c * B1, rtol=1e-13)
        Chat = gal.C.toarray()
        assert Chat.shape == (2, 2 * n)
        assert_allclose(Chat[0, :n], np.ones(n))
        assert_allclose(Chat[0, n:], c * C1.ravel(), rtol=1e-13)

    def test_leading_block_is_mean_system(self):
        rng = np.random.default_rng(8)
        n = 4
        dists = (Distribution.uniform(0.5, 1.5), Distribution.gaussian(2.0, 0.3))
        aps = AffineParamSystem(
            E0=np.eye(n), A0=rng.standard_normal((n, n)),
            B0=rng.standard_normal((n, 1)), C0=rng.standard_normal((1, n)),
            E_parts=(rng.standard_normal((n, n)), None),
            A_parts=(rng.standard_normal((n, n)), rng.standard_normal((n, n))),
            B_parts=(None, rng.standard_normal((n, 1))),
            C_parts=(None, None),
            dists=dists)
        basis = build_basis(dists, 2)
        gal = assemble(aps, basis)
        at_mean = eval_at(aps, aps.nominal())
        assert_allclose(gal.A.toarray()[:n, :n], at_mean.A, rtol=1e-13)
        assert_allclose(gal.E.toarray()[:n, :n], at_mean.E, rtol=1e-13)
        assert_allclose(np.asarray(gal.B)[:n], at_mean.B, rtol=1e-13)

    def test_dimension_scaling(self):
        rng = np.random.default_rng(9)
        aps, *_ = one_param_family(rng, n=5)
        for degree, m in ((0, 1), (1, 2), (3, 4)):
            basis = build_basis(aps.dists, degree)
            gal = assemble(aps, basis)
            assert gal.m == m
            assert gal.dim == 5 * m
            assert gal.as_lti().n == 5 * m

    def test_dist_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        aps, *_ = one_param_family(rng)
        wrong = build_basis((Distribution.uniform(0.0, 1.0),), 1)
        with pytest.raises(ValueError):
            assemble(aps, wrong)
        with pytest.raises(ValueError):
            assemble_output(aps, wrong)

    def test_galerkin_solution_reproduces_parametric_transfer(self):
        # moment test: integrating H(mu; s) Phi_i against the basis equals the
        # block rows of the coupled transfer function
        rng = np.random.default_rng(11)
        aps, A0, A1, B1, C1 = one_param_family(rng)
        # make every realization stable so the comparison is well posed
        aps.A0[:] = A0 - (6.0 + np.max(np.abs(np.linalg.eigvals(A0)))) * np.eye(3)
        basis = build_basis(aps.dists, 4)
        gal = assemble(aps, basis)
        s = 0.7 + 1.3j
        n = aps.n
        Khat = s * gal.E.toarray() - gal.A.toarray()
        xhat = np.linalg.solve(Khat, np.asarray(gal.B)).reshape(basis.m, n)
        rule = tensor_rule(aps.dists, 12)
        ref = np.zeros((basis.m, n), dtype=complex)
        for w, mu in zip(rule.weights, rule.nodes):
            sysm = eval_at(aps, mu)
            x = np.linalg.solve(s * sysm.E - sysm.A, sysm.B).ravel()
            ref += w * np.outer(eval_basis(basis, mu), x)
        # degree-4 chaos on an affine family: low-order coefficient blocks
        # converge; compare the first two
        assert_allclose(xhat[:2], ref[:2], atol=2e-5)


class TestQuadratureAssembly:
    def test_matches_exact_on_affine_family(self):
        rng = np.random.default_rng(12)
        n = 3
        dists = (Distribution.uniform(0.8, 1.2), Distribution.uniform(-0.5, 0.5))
        aps = AffineParamSystem(
            E0=np.eye(n), A0=rng.standard_normal((n, n)),
            B0=rng.standard_normal((n, 1)), C0=rng.standard_normal((1, n)),
            E_parts=(rng.standard_normal((n, n)) * 0.1, None),
            A_parts=(rng.standard_normal((n, n)), rng.standard_normal((n, n))),
            B_parts=(rng.standard_normal((n, 1)), None),
            C_parts=(None, None),
            dists=dists)
        basis = build_basis(dists, 2)
        exact = assemble(aps, basis)

        def matrix_fn(mu):
            sysm = eval_at(aps, mu)
            return sysm.A, sysm.B, sysm.E

        rule = tensor_rule(dists, basis.degree + 2)
        quad = assemble_via_quadrature(matrix_fn, basis, rule,
                                       C=assemble_output(aps, basis))
        assert_allclose(quad.A, exact.A.toarray(), atol=1e-12)
        assert_allclose(quad.E, exact.E.toarray(), atol=1e-12)
        assert_allclose(quad.B, np.asarray(exact.B), atol=1e-12)
        assert_allclose(quad.C.toarray(), exact.C.toarray(), atol=1e-12)

    def test_default_output_is_empty(self):
        rng = np.random.default_rng(13)
        aps, *_ = one_param_family(rng)
        basis = build_basis(aps.dists, 1)

        def matrix_fn(mu):
            sysm = eval_at(aps, mu)
            return sysm.A, sysm.B, sysm.E

        gal = assemble_via_quadrature(matrix_fn, basis,
                                      monte_carlo_rule(aps.dists, 20, seed=0))
        assert gal.C.shape == (0, gal.dim)
        assert gal.provenance == "quadrature"

    def test_node_failure_is_located(self):
        basis = build_basis((Distribution.uniform(-1, 1),), 1)
        rule = monte_carlo_rule(basis.dists, 5, seed=1)

        def matrix_fn(mu):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="node 0"):
            assemble_via_quadrature(matrix_fn, basis, rule)


def kron_loop_reference(matrix_fn, basis, rule):
    """Per-node sum of w_k S(mu_k) (x) X(mu_k), one dense kron per node."""
    A_hat = E_hat = B_hat = 0.0
    for w, mu in zip(rule.weights, rule.nodes):
        A_k, B_k, E_k = matrix_fn(mu)
        s = eval_basis(basis, mu)
        A_hat = A_hat + w * np.kron(np.outer(s, s), A_k)
        E_hat = E_hat + w * np.kron(np.outer(s, s), E_k)
        B_hat = B_hat + w * np.kron(s[:, None], B_k)
    return A_hat, B_hat, E_hat


class TestQuadratureContraction:
    @pytest.mark.parametrize("chunk_bytes", [1, sgmor.galerkin._CHUNK_BYTES])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_kron_loop(self, seed, chunk_bytes, monkeypatch):
        # a non-affine dependence, so no exact assembly exists to compare to;
        # chunk_bytes = 1 makes every block row its own chunk
        monkeypatch.setattr(sgmor.galerkin, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, 4))
        dists = [Distribution.uniform(0.5, 1.5), Distribution.gaussian(0.0, 1.0),
                 Distribution.uniform(-1.0, 1.0)][:q]
        basis = build_basis(dists, 2)
        A0, A1, E0, E1 = (rng.standard_normal((n, n)) for _ in range(4))
        B0, B1 = (rng.standard_normal((n, 2)) for _ in range(2))

        def matrix_fn(mu):
            t, u = np.tanh(mu.sum()), np.dot(mu, mu)
            return A0 + t * A1, B0 + u * B1, E0 + u * E1

        rule = monte_carlo_rule(dists, 3 * basis.m, seed=seed)
        gal = assemble_via_quadrature(matrix_fn, basis, rule)
        A_ref, B_ref, E_ref = kron_loop_reference(matrix_fn, basis, rule)
        # the GEMM sums the nodes in another order than the loop; entries
        # that cancel to near zero are held to rtol times the largest entry
        for got, ref in ((gal.A, A_ref), (gal.E, E_ref), (gal.B, B_ref)):
            assert got.shape == ref.shape
            assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        assert (gal.m, gal.n, gal.n_in) == (basis.m, n, 2)


class TestGramCheck:
    def _refuses(self, basis, rule):
        def matrix_fn(mu):
            raise AssertionError("matrix_fn must not run on a refused rule")

        with pytest.raises(ValueError, match=f"at least m = {basis.m} nodes"):
            assemble_via_quadrature(matrix_fn, basis, rule)

    def test_fewer_nodes_than_basis_polynomials(self):
        dists = (Distribution.uniform(0.8, 1.2), Distribution.gaussian(0.0, 1.0))
        basis = build_basis(dists, 2)
        self._refuses(basis, monte_carlo_rule(dists, basis.m - 1, seed=0))

    def test_repeated_nodes(self):
        # enough nodes, but all at one point: the Gram matrix has rank one
        dists = (Distribution.uniform(0.8, 1.2),)
        basis = build_basis(dists, 2)
        rule = QuadratureRule(nodes=np.full((2 * basis.m, 1), 0.9),
                              weights=np.full(2 * basis.m, 0.5 / basis.m))
        self._refuses(basis, rule)


class TestGalerkinSystem:
    def test_as_lti_shares_matrices(self):
        rng = np.random.default_rng(14)
        aps, *_ = one_param_family(rng)
        gal = assemble(aps, build_basis(aps.dists, 2))
        lti = gal.as_lti()
        assert lti.n == gal.dim
        assert sp.issparse(lti.A)
        assert lti.n_out == gal.n_out
