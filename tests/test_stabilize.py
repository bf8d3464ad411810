import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from sgmor import (
    AffineParamSystem,
    Distribution,
    FrequencyRule,
    LTISystem,
    NodeKronSum,
    QuadratureRule,
    arnoldi,
    assemble,
    assemble_via_quadrature,
    build_basis,
    build_bandpass,
    build_msd,
    eval_at,
    is_dissipative,
    monte_carlo_rule,
    pencil_spectrum,
    reduce,
    regularize,
    regularize_affine,
    run_experiment,
    solve_lyap_direct,
    stability_sweep,
    technique_i,
    technique_ii,
    technique_iii,
)
from sgmor.bench import RunConfig, project, stabilized_basis
from sgmor.stabilize import DEFAULT_BETA, _technique_iii_margin
from sgmor.systems import _affine_sum

from _gen import (lyap_one_pencil, random_dissipative, random_orthonormal, random_spd, stacked,
                  theta_family)


def regularization_gaps(aps, basis, beta, beta_other=None):
    """Relative entrywise gaps in E and A between regularize-then-project
    and project-then-regularize (with beta_other, when given)."""
    first = assemble(regularize_affine(aps, beta), basis)
    plain = assemble(aps, basis)
    E2, A2 = regularize(plain.E, plain.A, beta if beta_other is None else beta_other)
    return tuple(abs(X - Y).max() / max(abs(X).max(), abs(Y).max())
                 for X, Y in ((first.E, E2), (first.A, A2)))


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
        assert max(regularization_gaps(aps, basis, 1e-5)) <= 1e-12

    def test_mismatched_beta_flagged(self):
        rng = np.random.default_rng(34)
        aps = stable_family(rng, 3, 2)
        basis = build_basis(aps.dists, 1)
        assert max(regularization_gaps(aps, basis, 1e-5, beta_other=2e-5)) > 1e-12


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
            assert pencil_spectrum(E, A).abscissa < 0

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

            gal = assemble_via_quadrature(stacked(matrix_fn), basis, quad)
            Ed = gal.E.toarray()
            Ad = gal.A.toarray()
            lam_E = np.linalg.eigvalsh(0.5 * (Ed + Ed.T))
            lam_S = np.linalg.eigvalsh(Ad + Ad.T)
            assert lam_E.min() >= -1e-10 * max(np.abs(lam_E).max(), 1.0)
            assert lam_S.max() <= 1e-10 * max(np.abs(lam_S).max(), 1.0)


class TestOutcome:
    """The driver's outcome: one reduced system of the basis's rank and the
    technique's diagnostics, for every technique."""

    @pytest.mark.parametrize("technique, keys", [
        ("none", set()), ("i", {"nodes", "omega_scale"}), ("ii", {"nodes"}),
        ("iii", {"margin", "mu_star"})])
    def test_driver_contract(self, technique, keys):
        cfg = RunConfig(model="msd", degree=1, technique=technique, with_errors=False)
        _, arn, outcome = stabilized_basis(cfg, timings={})
        assert outcome.technique == cfg.technique
        assert outcome.reduced.n == arn.rank
        assert set(outcome.diagnostics) == keys
        if technique == "ii":
            assert outcome.diagnostics == {"nodes": 100}
        assert outcome.diagnostics == run_experiment(cfg)["diagnostics"]

    def test_technique_ii_returns_the_reassembled_system(self):
        aps = build_msd()
        basis = build_basis(aps.dists, 1)
        fom = technique_ii(aps, basis, monte_carlo_rule(aps.dists, 30, seed=7))
        assert isinstance(fom, LTISystem)
        assert isinstance(fom.E, NodeKronSum) and isinstance(fom.A, NodeKronSum)
        assert (fom.n, fom.n_in, fom.n_out) == (basis.m * aps.n, 1, basis.m)


class TestTechniqueI:
    def test_reduced_system_stable_at_all_orders(self):
        rng = np.random.default_rng(51)
        aps = stable_family(rng, 4, 2, part_scale=0.1)
        fom = assemble(aps, build_basis(aps.dists, 2))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=10, s0=1.0)
        out = technique_i(fom, res.V, rule=FrequencyRule.gauss(64))
        assert out.technique == "i"
        assert out.reduced.n == res.V.shape[1]
        assert out.diagnostics["nodes"] == 64
        report = stability_sweep(out.reduced)
        assert all(row.stable for row in report.rows)

    def test_reduced_pencil_is_dissipative(self):
        # with enough nodes V^T E^T M E V is SPD and sym(V^T E^T M A V) ND
        rng = np.random.default_rng(52)
        aps = stable_family(rng, 3, 1, part_scale=0.1)
        fom = assemble(aps, build_basis(aps.dists, 2))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=4, s0=1.0)
        rom = technique_i(fom, res.V, rule=FrequencyRule.gauss(128)).reduced
        assert np.array_equal(rom.E, rom.E.T)
        assert is_dissipative(rom.E, rom.A).ok


class TestTechniqueII:
    def test_transformed_system_is_dissipative_aggregate(self):
        rng = np.random.default_rng(53)
        aps = stable_family(rng, 3, 2, part_scale=0.05)
        basis = build_basis(aps.dists, 1)
        quad = monte_carlo_rule(aps.dists, 40, seed=5)
        fom_t = technique_ii(aps, basis, quad)
        Ed = fom_t.E.toarray()
        Ad = fom_t.A.toarray()
        lam_E = np.linalg.eigvalsh(0.5 * (Ed + Ed.T))
        lam_S = np.linalg.eigvalsh(Ad + Ad.T)
        assert lam_E.min() >= -1e-10 * max(np.abs(lam_E).max(), 1.0)
        assert lam_S.max() <= 1e-10 * max(np.abs(lam_S).max(), 1.0)

    def test_output_matrix_is_exact_projection(self):
        from sgmor import assemble_output

        rng = np.random.default_rng(54)
        aps = stable_family(rng, 3, 1)
        basis = build_basis(aps.dists, 2)
        fom_t = technique_ii(aps, basis, monte_carlo_rule(aps.dists, 10, seed=2))
        assert_allclose(fom_t.C.toarray(),
                        assemble_output(aps, basis).toarray(), rtol=1e-13)

    def test_reductions_of_transform_are_stable(self):
        rng = np.random.default_rng(55)
        aps = stable_family(rng, 3, 1, part_scale=0.1)
        basis = build_basis(aps.dists, 2)
        fom_t = technique_ii(aps, basis, monte_carlo_rule(aps.dists, 50, seed=3))
        res = arnoldi(fom_t.E, fom_t.A, fom_t.B, r_max=6, s0=1.0)
        report = stability_sweep(reduce(fom_t, res.V))
        assert all(row.stable for row in report.rows)


def per_node_matrices(aps):
    """Technique ii's transformed node matrices by the per-node loop that the
    stacked pass replaced: one eval_at, one-pencil solve and transform per
    node, stacked for assemble_via_quadrature."""
    def at(mu):
        sys_mu = eval_at(aps, mu)
        M = lyap_one_pencil(sys_mu.E, sys_mu.A, np.eye(aps.n))
        EtM = sys_mu.E.T @ M
        return EtM @ sys_mu.A, EtM @ sys_mu.B, EtM @ sys_mu.E

    return stacked(at)


def one_unstable_family():
    """E = diag(1, 1 - mu) and A = -I on a Gaussian parameter: E is singular
    at mu = 1, and the pencil's eigenvalue 1 / (mu - 1) is unstable for
    mu > 1."""
    return AffineParamSystem(
        E0=np.eye(2), A0=-np.eye(2), B0=np.ones((2, 1)), C0=np.ones((1, 2)),
        E_parts=(np.diag([0.0, -1.0]),), A_parts=(None,),
        B_parts=(None,), C_parts=(None,), dists=(Distribution.gaussian(0.0, 1.0),))


def node_rule(values):
    return QuadratureRule(nodes=np.array(values)[:, None],
                          weights=np.full(len(values), 1.0 / len(values)))


class TestTechniqueIIStacked:
    """The stacked pass against the per-node loop it replaced."""

    def test_msd2_node_matrices_equal_per_node_loop(self):
        # the benchmark's case: MSD degree 2 at 200 nodes, seed 0; MSD's E
        # is diagonal, so numpy's and scipy's reductions agree bit for bit
        aps = build_msd()
        basis = build_basis(aps.dists, 2)
        quad = monte_carlo_rule(aps.dists, 200, seed=0)
        got = technique_ii(aps, basis, quad)
        want = assemble_via_quadrature(per_node_matrices(aps), basis, quad)
        assert np.array_equal(got.E.X, want.E.X)
        assert np.array_equal(got.A.X, want.A.X)
        assert np.array_equal(got.B, want.B)

    def test_bpf1_solves_as_backward_stable_as_per_node_loop(self):
        # regularized BPF degree 1 at its 100 default nodes: cond(E) ~ 5e5, so
        # the two reductions round differently and M moves ~1e-11 relative;
        # compare the backward residual of each node's solve instead
        aps = regularize_affine(build_bandpass(), DEFAULT_BETA)
        nodes = monte_carlo_rule(aps.dists, 100, seed=0).nodes
        E = _affine_sum(aps.E0, aps.E_parts, nodes)
        A = _affine_sum(aps.A0, aps.A_parts, nodes)
        F = np.eye(aps.n)
        stack = solve_lyap_direct(E, A, np.broadcast_to(F, E.shape))

        def backward(Ej, Aj, Mj):
            R = Aj.T @ Mj @ Ej + Ej.T @ Mj @ Aj + F
            scale = 2 * np.linalg.norm(Aj) * np.linalg.norm(Mj) * np.linalg.norm(Ej)
            return np.linalg.norm(R) / (scale + np.linalg.norm(F))

        new = max(backward(*node) for node in zip(E, A, stack))
        old = max(backward(Ej, Aj, lyap_one_pencil(Ej, Aj, F)) for Ej, Aj in zip(E, A))
        assert new < 1e-13 and new <= 5 * old

    def test_unstable_node_is_named(self):
        aps = one_unstable_family()
        basis = build_basis(aps.dists, 1)
        with pytest.raises(ValueError, match="node 3: pencil is not asymptotically stable"):
            technique_ii(aps, basis, node_rule([-0.5, 0.0, 0.5, 2.5, -1.0]))

    def test_singular_e_node_is_named(self):
        aps = one_unstable_family()
        basis = build_basis(aps.dists, 1)
        with pytest.raises(ValueError, match="node 2: E is numerically singular"):
            technique_ii(aps, basis, node_rule([-0.5, 0.0, 1.0, 0.5, -1.0]))


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
        lam_min_F = np.linalg.eigvalsh(F)[0]
        assert_allclose(_technique_iii_margin(fom, frozen, F), -lam_min_F, atol=1e-8)

    def test_negative_margin_certifies_stability(self):
        rng = np.random.default_rng(57)
        aps = stable_family(rng, 4, 2, part_scale=0.02)
        fom = assemble(aps, build_basis(aps.dists, 1))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=8, s0=1.0)
        assert _technique_iii_margin(fom, aps) < 0
        report = stability_sweep(technique_iii(fom, aps, res.V))
        assert all(row.stable for row in report.rows)

    def test_reduced_system_is_blockwise_projection(self):
        # technique_iii's reduced system is the Petrov-Galerkin reduction
        # with W = (I (x) M*) E V
        rng = np.random.default_rng(58)
        aps = stable_family(rng, 4, 2)
        fom = assemble(aps, build_basis(aps.dists, 2))
        res = arnoldi(fom.E, fom.A, fom.B, r_max=8, s0=1.0)
        out = technique_iii(fom, aps, res.V)
        at_mean = eval_at(aps, aps.nominal())
        M_star = solve_lyap_direct(at_mean.E, at_mean.A, np.eye(aps.n))
        m = fom.n // aps.n
        W = np.kron(np.eye(m), M_star) @ (fom.E @ res.V)
        ref = reduce(fom, res.V, W)
        for name in "EABC":
            got, want = getattr(out, name), getattr(ref, name)
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

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
        with pytest.raises(ValueError, match="not a multiple"):
            _technique_iii_margin(other, aps)

    @pytest.mark.parametrize("case", ["msd-1", "bpf-1", "one-state"])
    def test_margin_matches_dense_eigenvalue(self, case):
        # ARPACK's largest eigenvalue against a dense eigvalsh of the same
        # symmetric matrix; the one-state degree-0 system is 1 x 1, which
        # eigsh refuses
        if case == "one-state":
            aps = stable_family(np.random.default_rng(60), 1, 2)
            fom = assemble(aps, build_basis(aps.dists, 0))
        else:
            aps, _, fom = project(RunConfig(model=case[:3], degree=1))
        at_mean = eval_at(aps, aps.nominal())
        M_star = solve_lyap_direct(at_mean.E, at_mean.A, np.eye(aps.n))
        E, A = fom.E.toarray(), fom.A.toarray()
        T = E.T @ np.kron(np.eye(fom.n // aps.n), M_star) @ A
        expected = np.linalg.eigvalsh(T + T.T)[-1]
        assert_allclose(_technique_iii_margin(fom, aps), expected, rtol=1e-12)

    def test_sparse_margin_reproducible(self):
        # ARPACK with a random start vector differed in the last digits
        # between calls on BPF degree 2 (dimension 6900)
        aps = regularize_affine(build_bandpass(), DEFAULT_BETA)
        fom = assemble(aps, build_basis(aps.dists, 2))
        first = _technique_iii_margin(fom, aps)
        assert _technique_iii_margin(fom, aps) == first
