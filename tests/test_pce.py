import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgmor import (
    Distribution,
    QuadratureRule,
    build_basis,
    eval_basis,
    moment_matrix,
    monte_carlo_rule,
)

from sgmor.pce import gauss_legendre

from _gen import tensor_rule


class TestDistribution:
    def test_uniform_mean_and_scale(self):
        d = Distribution.uniform(1.0, 3.0)
        assert d.mean == 2.0
        assert d.shift == 2.0
        assert d.scale == 1.0

    def test_gaussian_mean_and_scale(self):
        d = Distribution.gaussian(0.5, 0.1)
        assert d.mean == 0.5
        assert d.scale == 0.1

    def test_standardize_roundtrip(self):
        d = Distribution.uniform(0.8, 1.2)
        x = np.array([0.8, 1.0, 1.15])
        assert_allclose(d.unstandardize(d.standardize(x)), x, rtol=1e-14)
        assert_allclose(d.standardize(1.2), 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Distribution.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            Distribution.gaussian(0.0, -1.0)

    def test_gauss_points_weights_sum_to_one(self):
        for d in (Distribution.uniform(-1.0, 1.0), Distribution.gaussian(0.0, 1.0)):
            xi, w = d.gauss_points(7)
            assert xi.shape == (7,)
            assert_allclose(w.sum(), 1.0, rtol=1e-13)

    def test_gauss_points_integrate_moments(self):
        # E[xi^2] = 1/3 for uniform on [-1, 1], 1 for the standard normal
        xi, w = Distribution.uniform(0.0, 1.0).gauss_points(4)
        assert_allclose(w @ xi ** 2, 1.0 / 3.0, rtol=1e-13)
        xi, w = Distribution.gaussian(0.0, 1.0).gauss_points(6)
        assert_allclose(w @ xi ** 2, 1.0, rtol=1e-13)
        assert_allclose(w @ xi ** 4, 3.0, rtol=1e-13)

    def test_gauss_legendre_computed_once_and_shared_read_only(self):
        x, w = gauss_legendre(200)
        x_ref, w_ref = np.polynomial.legendre.leggauss(200)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        assert gauss_legendre(200)[0] is x
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0

    def test_sample_bounds_and_reproducibility(self):
        d = Distribution.uniform(2.0, 4.0)
        x = d.sample(np.random.default_rng(5), 1000)
        assert x.shape == (1000,)
        assert np.all((x >= 2.0) & (x <= 4.0))
        y = d.sample(np.random.default_rng(5), 1000)
        assert_allclose(x, y)


class TestBasisCount:
    def test_matches_comb(self):
        for q in range(1, 6):
            for d in range(0, 4):
                b = build_basis([Distribution.uniform(-1, 1)] * q, d)
                assert b.m == math.comb(q + d, d)


class TestBasisConstruction:
    def test_graded_lexicographic_order(self):
        b = build_basis([Distribution.uniform(-1, 1)] * 2, 2)
        assert b.indices == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert b.m == 6

    def test_constant_first_and_count(self):
        dists = [Distribution.uniform(-1, 1), Distribution.gaussian(0, 1),
                 Distribution.uniform(0, 2)]
        b = build_basis(dists, 3)
        assert b.indices[0] == (0, 0, 0)
        assert b.m == math.comb(3 + 3, 3)
        grades = [sum(i) for i in b.indices]
        assert grades == sorted(grades)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_basis([], 2)
        with pytest.raises(ValueError):
            build_basis([Distribution.uniform(-1, 1)], -1)
        with pytest.raises(TypeError):
            build_basis(["uniform"], 1)


class TestEvalBasis:
    def test_legendre_values(self):
        # psi_1 = sqrt(3) xi, psi_2 = sqrt(5) (3 xi^2 - 1) / 2 on [-1, 1]
        b = build_basis([Distribution.uniform(-1.0, 1.0)], 2)
        s = eval_basis(b, [0.5])
        assert_allclose(s, [1.0, 0.8660254037844386, -0.2795084971874737],
                        rtol=1e-14)

    def test_hermite_values(self):
        # psi_2 = (xi^2 - 1) / sqrt(2); the shifted point mu = 5 maps to xi = 2
        b = build_basis([Distribution.gaussian(1.0, 2.0)], 2)
        s = eval_basis(b, [5.0])
        assert_allclose(s, [1.0, 2.0, 2.1213203435596424], rtol=1e-14)

    def test_multivariate_product(self):
        dists = [Distribution.uniform(-1, 1), Distribution.gaussian(0, 1)]
        b = build_basis(dists, 2)
        mu = np.array([0.3, -0.7])
        s = eval_basis(b, mu)
        pos = b.indices.index((1, 1))
        assert_allclose(s[pos], np.sqrt(3) * 0.3 * (-0.7), rtol=1e-14)

    def test_orthonormality_by_quadrature(self):
        # independent check with raw Gauss rules, not the package quadrature
        dists = (Distribution.uniform(0.5, 1.5), Distribution.uniform(-2.0, 0.0))
        b = build_basis(dists, 3)
        x1, w1 = np.polynomial.legendre.leggauss(5)
        x2, w2 = np.polynomial.legendre.leggauss(5)
        gram = np.zeros((b.m, b.m))
        for i in range(5):
            for j in range(5):
                mu = np.array([1.0 + 0.5 * x1[i], -1.0 + 1.0 * x2[j]])
                s = eval_basis(b, mu)
                gram += (w1[i] / 2.0) * (w2[j] / 2.0) * np.outer(s, s)
        assert_allclose(gram, np.eye(b.m), atol=1e-12)

    def test_batch_rows_equal_single_points(self):
        dists = [Distribution.uniform(0.5, 1.5), Distribution.gaussian(0.0, 2.0),
                 Distribution.uniform(-1, 1)]
        b = build_basis(dists, 3)
        rule = monte_carlo_rule(dists, 7, seed=3)
        S = eval_basis(b, rule.nodes)
        assert S.shape == (7, b.m)
        for row, mu in zip(S, rule.nodes):
            assert np.array_equal(row, eval_basis(b, mu))

    def test_batch_of_one_parameter(self):
        b = build_basis([Distribution.uniform(-1, 1)], 2)
        S = eval_basis(b, [[0.5], [-0.25]])
        assert np.array_equal(S[0], eval_basis(b, 0.5))
        assert np.array_equal(S[1], eval_basis(b, [-0.25]))

    def test_wrong_length_rejected(self):
        b = build_basis([Distribution.uniform(-1, 1)] * 2, 1)
        with pytest.raises(ValueError):
            eval_basis(b, [0.1])
        with pytest.raises(ValueError):
            eval_basis(b, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            eval_basis(b, np.zeros((1, 4, 2)))


class TestMomentMatrix:
    def test_g0_is_identity(self):
        b = build_basis([Distribution.uniform(0, 2)] * 3, 2)
        G0 = moment_matrix(b, 0)
        assert_allclose(G0.toarray(), np.eye(b.m))

    def test_uniform_degree_one(self):
        # E[mu * 1 * sqrt(3) mu] = sqrt(3) / 3 = 1 / sqrt(3) on [-1, 1]
        b = build_basis([Distribution.uniform(-1.0, 1.0)], 1)
        G1 = moment_matrix(b, 1).toarray()
        c = 1.0 / np.sqrt(3.0)
        assert_allclose(G1, [[0.0, c], [c, 0.0]], rtol=1e-14)

    def test_gaussian_degree_one(self):
        b = build_basis([Distribution.gaussian(0.0, 1.0)], 1)
        G1 = moment_matrix(b, 1).toarray()
        assert_allclose(G1, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_shifted_uniform(self):
        # mu = 2 + xi on [1, 3]: diagonal picks up the mean
        b = build_basis([Distribution.uniform(1.0, 3.0)], 1)
        G1 = moment_matrix(b, 1).toarray()
        c = 1.0 / np.sqrt(3.0)
        assert_allclose(G1, [[2.0, c], [c, 2.0]], rtol=1e-14)

    def test_first_column_holds_means(self):
        # G_l[0, 0] = E[mu_l] for every parameter
        dists = [Distribution.uniform(0.8, 1.2), Distribution.gaussian(2.0, 0.5),
                 Distribution.uniform(-3.0, -1.0)]
        b = build_basis(dists, 2)
        for l, d in enumerate(dists, start=1):
            G = moment_matrix(b, l)
            assert_allclose(G[0, 0], d.mean, rtol=1e-13)

    def test_against_full_quadrature(self):
        dists = (Adist, Bdist) = (Distribution.uniform(0.8, 1.2),
                                  Distribution.gaussian(0.5, 0.1))
        b = build_basis(dists, 3)
        rule = tensor_rule(dists, b.degree + 2)
        for l in (1, 2):
            G = moment_matrix(b, l).toarray()
            ref = np.zeros_like(G)
            for w, mu in zip(rule.weights, rule.nodes):
                s = eval_basis(b, mu)
                ref += w * mu[l - 1] * np.outer(s, s)
            assert_allclose(G, ref, atol=1e-12)

    def test_symmetry_and_sparsity(self):
        b = build_basis([Distribution.uniform(-1, 1)] * 3, 3)
        G2 = moment_matrix(b, 2)
        assert_allclose((G2 - G2.T).toarray(), 0.0, atol=1e-14)
        dense = G2.toarray()
        for i, idx in enumerate(b.indices):
            for j, jdx in enumerate(b.indices):
                same_elsewhere = all(
                    a == c for p, (a, c) in enumerate(zip(idx, jdx)) if p != 1
                )
                if not same_elsewhere or abs(idx[1] - jdx[1]) > 1:
                    assert dense[i, j] == 0.0

    def test_index_out_of_range(self):
        b = build_basis([Distribution.uniform(-1, 1)], 1)
        with pytest.raises(ValueError):
            moment_matrix(b, 2)
        with pytest.raises(ValueError):
            moment_matrix(b, -1)


class TestQuadratureRules:
    def test_tensor_rule_two_uniform(self):
        dists = [Distribution.uniform(-1, 1)] * 2
        rule = tensor_rule(dists, 2)
        assert rule.k == 4
        c = 1.0 / np.sqrt(3.0)
        expect = {(-c, -c), (-c, c), (c, -c), (c, c)}
        got = {tuple(np.round(n, 12)) for n in rule.nodes}
        assert got == {tuple(np.round(p, 12)) for p in expect}
        assert_allclose(rule.weights, 0.25)
        # exact for mu1^2 mu2^2
        vals = rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2
        assert_allclose(rule.weights @ vals, 1.0 / 9.0, rtol=1e-13)

    def test_tensor_rule_physical_coordinates(self):
        rule = tensor_rule([Distribution.uniform(4.0, 6.0)], 3)
        assert np.all((rule.nodes >= 4.0) & (rule.nodes <= 6.0))
        assert_allclose(rule.weights @ rule.nodes[:, 0], 5.0, rtol=1e-13)

    def test_monte_carlo_reproducible(self):
        dists = [Distribution.uniform(0, 1), Distribution.gaussian(0, 1)]
        r1 = monte_carlo_rule(dists, 50, seed=7)
        r2 = monte_carlo_rule(dists, 50, seed=7)
        r3 = monte_carlo_rule(dists, 50, seed=8)
        assert_allclose(r1.nodes, r2.nodes)
        assert not np.allclose(r1.nodes, r3.nodes)
        assert_allclose(r1.weights, 1.0 / 50.0)
        assert np.all((r1.nodes[:, 0] >= 0) & (r1.nodes[:, 0] <= 1))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.zeros((3, 1)), weights=np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.zeros((3, 1)), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            monte_carlo_rule([Distribution.uniform(0, 1)], 0)
