import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from sgmor import (
    FrequencyRule,
    LTISystem,
    ProjectionPair,
    arnoldi,
    pencil_spectrum,
    reduce,
    stability_sweep,
    transfer_eval,
)

from _gen import random_orthonormal, random_stable_generalized, random_stable_ode


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
            rom = reduce(fom, ProjectionPair(V=res.V))
            H_r = transfer_eval(rom.as_lti(), s0)
            errs.append(abs(H_r[0, 0] - H_full[0, 0]) / abs(H_full[0, 0]))
        # interpolation at s0 holds for every order; also improves nearby
        assert all(e < 1e-8 for e in errs)
        H_near_full = transfer_eval(fom, s0 + 0.2)
        near = []
        for r in (2, 9):
            res = arnoldi(fom.E, fom.A, fom.B, s0=s0, r_max=r)
            rom = reduce(fom, ProjectionPair(V=res.V))
            near.append(abs(transfer_eval(rom.as_lti(), s0 + 0.2)[0, 0]
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


class TestProjectionPair:
    def test_orthonormality_enforced(self):
        rng = np.random.default_rng(66)
        V = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectionPair(V=V)

    def test_w_defaults_to_v(self):
        rng = np.random.default_rng(67)
        V = random_orthonormal(rng, 10, 3)
        pair = ProjectionPair(V=V)
        assert pair.left() is pair.V
        assert pair.r == 3

    def test_w_shape_checked(self):
        rng = np.random.default_rng(68)
        V = random_orthonormal(rng, 10, 3)
        with pytest.raises(ValueError):
            ProjectionPair(V=V, W=np.ones((10, 2)))


class TestReduce:
    def test_matrices_are_projections(self):
        rng = np.random.default_rng(69)
        fom = make_fom(rng, 12, n_out=2)
        V = random_orthonormal(rng, 12, 4)
        W = rng.standard_normal((12, 4))
        red = reduce(fom, ProjectionPair(V=V, W=W))
        assert_allclose(red.E, W.T @ fom.E @ V, rtol=1e-12)
        assert_allclose(red.A, W.T @ fom.A @ V, rtol=1e-12)
        assert_allclose(red.B, W.T @ fom.B, rtol=1e-12)
        assert_allclose(red.C, fom.C @ V, rtol=1e-12)
        assert red.r == 4

    def test_transfer_invariant_under_left_factor_scaling(self):
        # replacing W by W T with invertible T leaves the transfer function
        rng = np.random.default_rng(70)
        fom = make_fom(rng, 15)
        V = random_orthonormal(rng, 15, 4)
        W = rng.standard_normal((15, 4))
        T = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        red1 = reduce(fom, ProjectionPair(V=V, W=W))
        red2 = reduce(fom, ProjectionPair(V=V, W=W @ T))
        for s in (0.5j, 1.0 + 2.0j):
            assert_allclose(transfer_eval(red2.as_lti(), s),
                            transfer_eval(red1.as_lti(), s), rtol=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(71)
        fom = make_fom(rng, 8)
        V = random_orthonormal(rng, 9, 2)
        with pytest.raises(ValueError):
            reduce(fom, ProjectionPair(V=V))


class TestStabilitySweep:
    def test_rows_and_errors(self):
        rng = np.random.default_rng(72)
        fom = make_fom(rng, 30)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=10)
        report = stability_sweep(fom, res.V, list(range(1, 11)),
                                 freq_rule=FrequencyRule.gauss(100))
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
        report = stability_sweep(fom, res.V, [1, 2, 4])
        assert all(row.rel_h2_error is None for row in report.rows)

    def test_r_list_validation(self):
        rng = np.random.default_rng(74)
        fom = make_fom(rng, 12)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=4)
        with pytest.raises(ValueError):
            stability_sweep(fom, res.V, [2, 2, 3])
        with pytest.raises(ValueError):
            stability_sweep(fom, res.V, [1, 7])

    def test_failed_order_recorded_not_raised(self):
        # zero E at every order: the pencil has no finite eigenvalues
        fom = LTISystem(E=np.zeros((3, 3)), A=-np.eye(3), B=np.ones((3, 1)),
                        C=np.ones((1, 3)))
        V = np.eye(3)[:, :2]
        report = stability_sweep(fom, V, [1, 2])
        assert all(not row.stable for row in report.rows)
        assert all(row.note is not None for row in report.rows)
        assert all(np.isnan(row.abscissa) for row in report.rows)

    def test_counts_and_unstable_orders(self):
        E = np.eye(2)
        fom_stable = LTISystem(E=E, A=-np.eye(2), B=np.ones((2, 1)),
                               C=np.ones((1, 2)))
        report = stability_sweep(fom_stable, np.eye(2), [1, 2])
        assert report.n_stable == 2
        assert report.unstable_orders == []


class TestCsv:
    def test_format_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(75)
        fom = make_fom(rng, 20)
        res = arnoldi(fom.E, fom.A, fom.B, s0=0.5, r_max=5)
        report = stability_sweep(fom, res.V, list(range(1, 6)),
                                 freq_rule=FrequencyRule.gauss(50))
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
        t1 = stability_sweep(fom1, res1.V, [1, 2, 3, 4]).to_csv()
        t2 = stability_sweep(fom2, res2.V, [1, 2, 3, 4]).to_csv()
        assert t1 == t2
