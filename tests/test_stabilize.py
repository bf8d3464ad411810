import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from sgmor import (
    AffineParamSystem,
    Distribution,
    FrequencyRule,
    StabilizationOutcome,
    arnoldi,
    assemble,
    build_basis,
    build_bandpass,
    eval_at,
    is_asymptotically_stable,
    is_dissipative,
    monte_carlo_rule,
    pencil_spectrum,
    regularization_commutes,
    regularize,
    regularize_affine,
    solve_lyap_direct,
    stability_sweep,
    technique_i,
    technique_ii,
    technique_iii,
    theta_family,
)
from sgmor.stabilize import DEFAULT_BETA, _technique_iii_margin

from _gen import random_dissipative, random_orthonormal, random_spd


def dissipative_family(rng, n, q, part_scale=0.2):
    """Affine family dissipative at every parameter in the uniform box."""
    E0 = random_spd(rng, n, floor=1.0)
    skew = rng.standard_normal((n, n))
    A0 = (skew - skew.T) - random_spd(rng, n, floor=1.0)
    lam_E = np.linalg.eigvalsh(0.5 * (E0 + E0.T))[0]
    lam_A = -np.linalg.eigvalsh(A0 + A0.T)[-1]
    E_parts, A_parts = [], []
    for _ in range(q):
        Se = rng.standard_normal((n, n))
        Se = 0.5 * (Se + Se.T)
        Se *= part_scale * lam_E / (q * np.linalg.norm(Se, 2))
        Sa = rng.standard_normal((n, n))
        Sa = 0.5 * (Sa + Sa.T)
        Sa *= part_scale * lam_A / (q * np.linalg.norm(Sa, 2) * 2.0)
        E_parts.append(Se)
        A_parts.append(Sa)
    return AffineParamSystem(
        E0=E0, A0=A0, B0=rng.standard_normal((n, 1)),
        C0=rng.standard_normal((1, n)),
        E_parts=tuple(E_parts), A_parts=tuple(A_parts),
        B_parts=(None,) * q, C_parts=(None,) * q,
        dists=tuple(Distribution.uniform(-1.0, 1.0) for _ in range(q)))


def stable_family(rng, n, q, margin=0.5, part_scale=0.05):
    """Stable but not dissipative family on uniform parameters."""
    A0 = rng.standard_normal((n, n))
    A0 -= (np.max(np.linalg.eigvals(A0).real) + margin) * np.eye(n)
    A_parts = tuple(part_scale * rng.standard_normal((n, n)) for _ in range(q))
    return AffineParamSystem(
        E0=np.eye(n), A0=A0, B0=rng.standard_normal((n, 1)),
        C0=rng.standard_normal((1, n)),
        E_parts=(None,) * q, A_parts=A_parts,
        B_parts=(None,) * q, C_parts=(None,) * q,
        dists=tuple(Distribution.uniform(-1.0, 1.0) for _ in range(q)))


class TestRegularization:
    def test_formula(self):
        rng = np.random.default_rng(31)
        E = rng.standard_normal((4, 4))
        A = rng.standard_normal((4, 4))
        Er, Ar = regularize(E, A, beta=1e-3)
        assert_allclose(Er, E - 1e-6 * A, rtol=1e-14)
        assert_allclose(Ar, A + 1e-3 * E, rtol=1e-14)

    def test_nonpositive_beta_rejected(self):
        aps = stable_family(np.random.default_rng(30), 3, 1)
        for beta in (0.0, -1e-3):
            with pytest.raises(ValueError, match="beta"):
                regularize(np.eye(2), -np.eye(2), beta=beta)
            with pytest.raises(ValueError, match="beta"):
                regularize_affine(aps, beta=beta)

    def test_removes_infinite_modes(self):
        beta = 1e-5
        E = np.diag([1.0, 0.0])
        A = np.diag([-1.0, -1.0])
        assert pencil_spectrum(E, A).n_infinite == 1
        Er, Ar = regularize(E, A, beta=beta)
        spectrum = pencil_spectrum(Er, Ar)
        # the algebraic mode lands at -1/alpha, the finite one moves O(beta)
        finite = np.sort(spectrum.finite.real)
        assert_allclose(finite[0], -1.0 / beta ** 2, rtol=1e-6)
        assert_allclose(finite[1], (-1.0 + beta) / (1.0 + beta ** 2),
                        rtol=1e-9)

    def test_affine_commutes_with_evaluation(self):
        rng = np.random.default_rng(32)
        aps = stable_family(rng, 4, 2)
        reg = regularize_affine(aps, beta=1e-4)
        mu = np.array([0.3, -0.8])
        direct = eval_at(reg, mu)
        Er, Ar = regularize(eval_at(aps, mu).E, eval_at(aps, mu).A, beta=1e-4)
        assert_allclose(direct.E, Er, rtol=1e-13)
        assert_allclose(direct.A, Ar, rtol=1e-13)

    def test_projection_commutes(self):
        rng = np.random.default_rng(33)
        aps = stable_family(rng, 3, 2)
        basis = build_basis(aps.dists, 2)
        rep = regularization_commutes(aps, basis, beta=1e-5)
        assert rep.equal
        assert rep.max_diff_E <= rep.tol
        assert rep.max_diff_A <= rep.tol

    def test_mismatched_beta_flagged(self):
        rng = np.random.default_rng(34)
        aps = stable_family(rng, 3, 2)
        basis = build_basis(aps.dists, 1)
        rep = regularization_commutes(aps, basis, beta=1e-5, beta_other=2e-5)
        assert not rep.equal


class TestThetaFamily:
    def test_matches_shrunk_parameters(self):
        rng = np.random.default_rng(35)
        aps = stable_family(rng, 4, 3)
        mu_bar = aps.nominal()
        theta = 0.4
        shrunk = theta_family(aps, theta)
        mu = np.array([0.9, -0.5, 0.2])
        inner = mu_bar + theta * (mu - mu_bar)
        assert_allclose(eval_at(shrunk, mu).A, eval_at(aps, inner).A,
                        rtol=1e-13)
        assert_allclose(eval_at(shrunk, mu).E, eval_at(aps, inner).E,
                        rtol=1e-13)

    def test_theta_zero_is_constant(self):
        rng = np.random.default_rng(36)
        aps = stable_family(rng, 3, 2)
        frozen = theta_family(aps, 0.0)
        at_mean = eval_at(aps, aps.nominal())
        for mu in ([0.5, 0.5], [-1.0, 1.0]):
            assert_allclose(eval_at(frozen, mu).A, at_mean.A, rtol=1e-13)

    def test_theta_one_is_identity(self):
        rng = np.random.default_rng(37)
        aps = stable_family(rng, 3, 2)
        same = theta_family(aps, 1.0)
        mu = [0.3, -0.4]
        assert_allclose(eval_at(same, mu).A, eval_at(aps, mu).A, rtol=1e-13)

    def test_range_checked(self):
        rng = np.random.default_rng(38)
        aps = stable_family(rng, 3, 1)
        with pytest.raises(ValueError):
            theta_family(aps, 1.5)


class TestTheoremProperties:
    def test_dissipative_implies_stable(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            E, A = random_dissipative(rng, int(rng.integers(2, 15)))
            assert is_asymptotically_stable(E, A)

    def test_projection_preserves_dissipativity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            E, A = random_dissipative(rng, n)
            V = random_orthonormal(rng, n, int(rng.integers(1, n)))
            assert is_dissipative(V.T @ E @ V, V.T @ A @ V).ok

    def test_dissipative_family_gives_dissipative_projection(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            q = int(rng.integers(1, 4))
            aps = dissipative_family(rng, n, q)
            # spot-check a corner realization
            corner = np.ones(q)
            chk = is_dissipative(eval_at(aps, corner).E, eval_at(aps, corner).A)
            assert chk.ok
            gal = assemble(aps, build_basis(aps.dists, 2))
            assert is_dissipative(gal.E.toarray(), gal.A.toarray()).ok

    def test_quadrature_assembly_semidefiniteness(self):
        from sgmor import assemble_via_quadrature

        rng = np.random.default_rng(44)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            q = int(rng.integers(1, 3))
            aps = dissipative_family(rng, n, q)
            basis = build_basis(aps.dists, 2)
            quad = monte_carlo_rule(aps.dists, 30, seed=trial)

            def matrix_fn(mu):
                sysm = eval_at(aps, mu)
                return sysm.A, sysm.B, sysm.E

            gal = assemble_via_quadrature(matrix_fn, basis, quad)
            Ed = np.asarray(gal.E)
            Ad = np.asarray(gal.A)
            lam_E = np.linalg.eigvalsh(0.5 * (Ed + Ed.T))
            lam_S = np.linalg.eigvalsh(Ad + Ad.T)
            assert lam_E.min() >= -1e-10 * max(np.abs(lam_E).max(), 1.0)
            assert lam_S.max() <= 1e-10 * max(np.abs(lam_S).max(), 1.0)


class TestOutcome:
    def test_exactly_one_field(self):
        with pytest.raises(ValueError):
            StabilizationOutcome(technique="x")
        with pytest.raises(ValueError):
            StabilizationOutcome(technique="x", W=np.eye(2),
                                 transformed="anything")


class TestTechniqueI:
    def test_left_factor_stabilizes_all_orders(self):
        rng = np.random.default_rng(51)
        aps = stable_family(rng, 4, 2, part_scale=0.1)
        fom = assemble(aps, build_basis(aps.dists, 2))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=10, s0=1.0)
        out = technique_i(fom, res.V, rule=FrequencyRule.gauss(64))
        assert out.technique == "i"
        assert out.W.shape == res.V.shape
        assert out.diagnostics["nodes"] == 64
        report = stability_sweep(fom, res.V, W_full=out.W)
        assert all(row.stable for row in report.rows)

    def test_reduced_pencil_is_dissipative(self):
        # with enough nodes W^T E V is SPD and sym(W^T A V) ND
        rng = np.random.default_rng(52)
        aps = stable_family(rng, 3, 1, part_scale=0.1)
        fom = assemble(aps, build_basis(aps.dists, 2))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=4, s0=1.0)
        W = technique_i(fom, res.V, rule=FrequencyRule.gauss(128)).W
        Er = W.T @ (fom.E @ res.V)
        Ar = W.T @ (fom.A @ res.V)
        assert is_dissipative(0.5 * (Er + Er.T), Ar).ok


class TestTechniqueII:
    def test_transformed_system_is_dissipative_aggregate(self):
        rng = np.random.default_rng(53)
        aps = stable_family(rng, 3, 2, part_scale=0.05)
        basis = build_basis(aps.dists, 1)
        quad = monte_carlo_rule(aps.dists, 40, seed=5)
        out = technique_ii(aps, basis, quad)
        assert out.technique == "ii"
        Ed = np.asarray(out.transformed.E)
        Ad = np.asarray(out.transformed.A)
        lam_E = np.linalg.eigvalsh(0.5 * (Ed + Ed.T))
        lam_S = np.linalg.eigvalsh(Ad + Ad.T)
        assert lam_E.min() >= -1e-10 * max(np.abs(lam_E).max(), 1.0)
        assert lam_S.max() <= 1e-10 * max(np.abs(lam_S).max(), 1.0)

    def test_output_matrix_is_exact_projection(self):
        from sgmor import assemble_output

        rng = np.random.default_rng(54)
        aps = stable_family(rng, 3, 1)
        basis = build_basis(aps.dists, 2)
        out = technique_ii(aps, basis, monte_carlo_rule(aps.dists, 10, seed=2))
        assert_allclose(out.transformed.C.toarray(),
                        assemble_output(aps, basis).toarray(), rtol=1e-13)

    def test_reductions_of_transform_are_stable(self):
        rng = np.random.default_rng(55)
        aps = stable_family(rng, 3, 1, part_scale=0.1)
        basis = build_basis(aps.dists, 2)
        out = technique_ii(aps, basis, monte_carlo_rule(aps.dists, 50, seed=3))
        fom_t = out.transformed
        res = arnoldi(fom_t.E, fom_t.A, fom_t.B, r_max=6, s0=1.0)
        report = stability_sweep(fom_t, res.V)
        assert all(row.stable for row in report.rows)


class TestTechniqueIII:
    def test_margin_at_theta_zero_equals_lyapunov_f(self):
        # with the parameter spread shrunk to zero the certified margin is
        # exactly -lambda_min(F)
        rng = np.random.default_rng(56)
        aps = stable_family(rng, 4, 2)
        F = random_spd(rng, 4)
        frozen = theta_family(aps, 0.0)
        basis = build_basis(frozen.dists, 1)
        fom = assemble(frozen, basis)
        res = arnoldi(fom.E, fom.A, fom.B, r_max=4, s0=1.0)
        out = technique_iii(fom, frozen, res.V, F=F)
        lam_min_F = np.linalg.eigvalsh(F)[0]
        assert_allclose(out.diagnostics["margin"], -lam_min_F, atol=1e-8)

    def test_negative_margin_certifies_stability(self):
        rng = np.random.default_rng(57)
        aps = stable_family(rng, 4, 2, part_scale=0.02)
        fom = assemble(aps, build_basis(aps.dists, 1))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=8, s0=1.0)
        out = technique_iii(fom, aps, res.V)
        assert out.diagnostics["margin"] < 0
        report = stability_sweep(fom, res.V, W_full=out.W)
        assert all(row.stable for row in report.rows)

    def test_block_count_must_divide(self):
        # the state dimension of the family (3) does not divide that of a
        # system projected from another family (2 blocks of 4 states)
        rng = np.random.default_rng(59)
        aps = stable_family(rng, 3, 1)
        family4 = stable_family(rng, 4, 1)
        other = assemble(family4, build_basis(family4.dists, 1))
        V = np.linalg.qr(rng.standard_normal((other.n, 2)))[0]
        with pytest.raises(ValueError, match="not a multiple"):
            technique_iii(other, aps, V)
        M_star = np.eye(aps.n)
        with pytest.raises(ValueError, match="not a multiple"):
            _technique_iii_margin(other, M_star)

    def test_sparse_margin_reproducible(self):
        # BPF degree 2 (dimension 6900) takes the eigsh branch; ARPACK with
        # a random start vector differed in the last digits between calls
        aps = regularize_affine(build_bandpass(), DEFAULT_BETA)
        fom = assemble(aps, build_basis(aps.dists, 2))
        at_mean = eval_at(aps, aps.nominal())
        M_star = solve_lyap_direct(at_mean.E, at_mean.A, np.eye(aps.n))
        first = _technique_iii_margin(fom, M_star)
        assert _technique_iii_margin(fom, M_star) == first
