import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from sgmor import (
    FrequencyRule,
    LTISystem,
    arnoldi,
    pencil_spectrum,
    reduce,
    stability_sweep,
    transfer_eval,
)

from _gen import (random_orthonormal, random_stable_generalized, random_stable_ode,
                  random_stable_sparse)


def make_fom(rng, n, n_out=1):
    E, A = random_stable_generalized(rng, n, margin=0.3)
    B = rng.standard_normal((n, 1))
    C = rng.standard_normal((n_out, n))
    return LTISystem(E=E, A=A, B=B, C=C)


class TestArnoldi:
    def test_orthonormal_basis(self):
        rng = np.random.default_rng(61)
        fom = make_fom(rng, 30)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=8)
        assert not res.breakdown
        assert res.rank == 8
        assert_allclose(res.V.T @ res.V, np.eye(8), atol=1e-12)

    def test_moment_matching_at_expansion_point(self):
        rng = np.random.default_rng(62)
        fom = make_fom(rng, 25)
        s0 = 1.0
        H_full = transfer_eval(fom, s0)
        errs = []
        for r in (2, 5, 9):
            res = arnoldi(fom.E, fom.A, fom.B, s0=s0, r_max=r)
            rom = reduce(fom, res.V)
            H_r = transfer_eval(rom, s0)
            errs.append(abs(H_r[0, 0] - H_full[0, 0]) / abs(H_full[0, 0]))
        # interpolation at s0 holds for every order; also improves nearby
        assert all(e < 1e-8 for e in errs)
        H_near_full = transfer_eval(fom, s0 + 0.2)
        near = []
        for r in (2, 9):
            res = arnoldi(fom.E, fom.A, fom.B, s0=s0, r_max=r)
            rom = reduce(fom, res.V)
            near.append(abs(transfer_eval(rom, s0 + 0.2)[0, 0]
                            - H_near_full[0, 0]))
        assert near[1] < near[0]

    def test_breakdown_on_invariant_subspace(self):
        # B spans a 2-dimensional invariant subspace: the third step degenerates
        E = np.eye(4)
        A = np.diag([-1.0, -2.0, -3.0, -4.0])
        A[0, 1] = 0.5
        B = np.array([[1.0], [1.0], [0.0], [0.0]])
        res = arnoldi(E, A, B, s0=0.0, r_max=4)
        assert res.breakdown
        assert res.rank == 2
        assert_allclose(res.V.T @ res.V, np.eye(2), atol=1e-12)
        assert_allclose(res.V[2:, :], 0.0, atol=1e-13)

    def test_r_max_clipped_to_dimension(self):
        rng = np.random.default_rng(63)
        fom = make_fom(rng, 5)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.0, r_max=50)
        assert res.rank <= 5

    def test_sparse_inputs(self):
        rng = np.random.default_rng(64)
        fom = make_fom(rng, 20)
        res_d = arnoldi(fom.E, fom.A, fom.B, s0=0.3, r_max=5)
        res_s = arnoldi(sp.csr_matrix(fom.E), sp.csr_matrix(fom.A),
                        sp.csr_matrix(fom.B), s0=0.3, r_max=5)
        # spans agree: projectors match
        P_d = res_d.V @ res_d.V.T
        P_s = res_s.V @ res_s.V.T
        assert_allclose(P_s, P_d, atol=1e-9)

    def test_multi_input_rejected(self):
        rng = np.random.default_rng(65)
        fom = make_fom(rng, 10)
        B2 = np.ones((10, 2))
        with pytest.raises(ValueError):
            arnoldi(fom.E, fom.A, B2, s0=0.0, r_max=3)

    def test_singular_shift_rejected(self):
        E = np.eye(2)
        A = np.diag([2.0, -1.0])
        B = np.ones((2, 1))
        with pytest.raises(ValueError, match="2"):
            arnoldi(E, A, B, s0=2.0, r_max=2)


class TestReduce:
    def test_orthonormality_enforced(self):
        rng = np.random.default_rng(66)
        fom = make_fom(rng, 10)
        V = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="orthonormal"):
            reduce(fom, V)

    def test_w_defaults_to_v(self):
        rng = np.random.default_rng(67)
        fom = make_fom(rng, 10)
        V = random_orthonormal(rng, 10, 3)
        red, red_vv = reduce(fom, V), reduce(fom, V, V)
        assert red.n == 3
        for X, Y in ((red.E, red_vv.E), (red.A, red_vv.A), (red.B, red_vv.B),
                     (red.C, red_vv.C)):
            assert np.array_equal(X, Y)

    def test_w_shape_checked(self):
        rng = np.random.default_rng(68)
        fom = make_fom(rng, 10)
        V = random_orthonormal(rng, 10, 3)
        with pytest.raises(ValueError, match="same shape"):
            reduce(fom, V, np.ones((10, 2)))

    def test_matrices_are_projections(self):
        rng = np.random.default_rng(69)
        fom = make_fom(rng, 12, n_out=2)
        V = random_orthonormal(rng, 12, 4)
        W = rng.standard_normal((12, 4))
        red = reduce(fom, V, W)
        assert_allclose(red.E, W.T @ fom.E @ V, rtol=1e-12)
        assert_allclose(red.A, W.T @ fom.A @ V, rtol=1e-12)
        assert_allclose(red.B, W.T @ fom.B, rtol=1e-12)
        assert_allclose(red.C, fom.C @ V, rtol=1e-12)
        assert red.n == 4

    def test_transfer_invariant_under_left_factor_scaling(self):
        # replacing W by W T with invertible T leaves the transfer function
        rng = np.random.default_rng(70)
        fom = make_fom(rng, 15)
        V = random_orthonormal(rng, 15, 4)
        W = rng.standard_normal((15, 4))
        T = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        red1 = reduce(fom, V, W)
        red2 = reduce(fom, V, W @ T)
        for s in (0.5j, 1.0 + 2.0j):
            assert_allclose(transfer_eval(red2, s), transfer_eval(red1, s),
                            rtol=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(71)
        fom = make_fom(rng, 8)
        V = random_orthonormal(rng, 9, 2)
        with pytest.raises(ValueError, match="dimension"):
            reduce(fom, V)


class TestStabilitySweep:
    def test_rows_and_errors(self):
        rng = np.random.default_rng(72)
        fom = make_fom(rng, 30)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=10)
        report = stability_sweep(fom, res.V, freq_rule=FrequencyRule.gauss(100))
        assert len(report.rows) == 10
        assert [row.r for row in report.rows] == list(range(1, 11))
        errs = [row.rel_h2_error for row in report.rows if row.stable]
        assert all(e is not None and e >= 0 for e in errs)
        # Krylov errors at matched orders shrink overall
        assert errs[-1] < errs[0]

    def test_no_errors_without_rule(self):
        rng = np.random.default_rng(73)
        fom = make_fom(rng, 12)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=4)
        report = stability_sweep(fom, res.V)
        assert all(row.rel_h2_error is None for row in report.rows)

    def test_failed_order_recorded_not_raised(self):
        # zero E at every order: the pencil has no finite eigenvalues
        fom = LTISystem(E=np.zeros((3, 3)), A=-np.eye(3), B=np.ones((3, 1)),
                        C=np.ones((1, 3)))
        V = np.eye(3)[:, :2]
        report = stability_sweep(fom, V)
        assert all(not row.stable for row in report.rows)
        assert all(row.note is not None for row in report.rows)
        assert all(np.isnan(row.abscissa) for row in report.rows)
        # a failed order is not an unstable one
        assert report.failed_orders == [1, 2]
        assert report.unstable_orders == []

    def test_failed_projection_fails_every_row(self):
        fom = LTISystem(E=np.eye(3), A=-np.eye(3), B=np.ones((3, 1)),
                        C=np.ones((1, 3)))
        report = stability_sweep(fom, 2.0 * np.eye(3))
        assert report.failed_orders == [1, 2, 3]
        assert all("orthonormal" in row.note for row in report.rows)
        assert report.n_stable == 0
        assert report.unstable_orders == []

    @pytest.mark.parametrize("with_w", [False, True], ids=["V", "VW"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_matches_per_order_loop(self, sparse, with_w):
        # one projection at r_max sliced per order, against one projection
        # per order and one factorization per grid point
        rng = np.random.default_rng(78)
        n = 40
        if sparse:
            E, A = random_stable_sparse(rng, n)
        else:
            E, A = random_stable_generalized(rng, n, margin=0.3)
        C = rng.standard_normal((2, n))
        fom = LTISystem(E=E, A=A, B=rng.standard_normal((n, 1)),
                        C=sp.csr_matrix(C) if sparse else C)
        V = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=12).V
        W = V + 0.3 * rng.standard_normal(V.shape) if with_w else None
        rule = FrequencyRule.gauss(60)

        omegas, weights = rule.half()

        def on_grid(sys):
            return np.array([transfer_eval(sys, 1j * om) for om in omegas])

        def energy(H):
            return np.sum(weights * np.sum(np.abs(H) ** 2, axis=(1, 2)))

        H = on_grid(fom)
        flags, absc, errs = [], [], []
        for r in range(1, V.shape[1] + 1):
            red = reduce(fom, V[:, :r], None if W is None else W[:, :r])
            a = pencil_spectrum(red.E, red.A).abscissa
            flags.append(bool(a < 0))
            absc.append(a)
            errs.append(np.sqrt(energy(H - on_grid(red)) / energy(H)))

        report = stability_sweep(fom, V, W_full=W, freq_rule=rule)
        assert report.failed_orders == []
        assert [row.stable for row in report.rows] == flags
        assert_allclose([row.abscissa for row in report.rows], absc, rtol=1e-12)
        assert_allclose([row.rel_h2_error for row in report.rows], errs, rtol=1e-12)

    def test_error_reference_io_checked(self):
        # a reference with another output count is a caller error, raised
        # before any order is reduced, not one failed row per order
        rng = np.random.default_rng(79)
        fom = make_fom(rng, 12)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=4)
        reference = make_fom(rng, 12, n_out=2)
        with pytest.raises(ValueError, match="input/output counts"):
            stability_sweep(fom, res.V, freq_rule=FrequencyRule.gauss(20),
                            error_reference=reference)

    def test_counts_and_unstable_orders(self):
        E = np.eye(2)
        fom_stable = LTISystem(E=E, A=-np.eye(2), B=np.ones((2, 1)),
                               C=np.ones((1, 2)))
        report = stability_sweep(fom_stable, np.eye(2))
        assert report.n_stable == 2
        assert report.unstable_orders == []


class TestCsv:
    def test_format_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(75)
        fom = make_fom(rng, 20)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=5)
        report = stability_sweep(fom, res.V, freq_rule=FrequencyRule.gauss(50))
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "r,stable,abscissa,rel_h2_error"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] in ("true", "false")
        # repr round-trip: parsing the string recovers the float exactly
        assert float(first[2]) == report.rows[0].abscissa
        path = tmp_path / "sweep.csv"
        report.to_csv(path)
        assert path.read_text() == text

    def test_identical_reports_serialize_identically(self):
        rng1 = np.random.default_rng(76)
        rng2 = np.random.default_rng(76)
        fom1 = make_fom(rng1, 15)
        fom2 = make_fom(rng2, 15)
        res1 = arnoldi(fom1.E, fom1.A, fom1.B, s0=0.5, r_max=4)
        res2 = arnoldi(fom2.E, fom2.A, fom2.B, s0=0.5, r_max=4)
        t1 = stability_sweep(fom1, res1.V).to_csv()
        t2 = stability_sweep(fom2, res2.V).to_csv()
        assert t1 == t2
