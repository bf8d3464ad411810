import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgmor import (
    RunConfig,
    build_bandpass,
    build_msd,
    eval_at,
    is_dissipative,
    pencil_spectrum,
    regularize_affine,
    run_experiment,
    transfer_eval,
)
from sgmor.bench import (
    BPF_LOAD_G,
    BPF_SERIES_C,
    BPF_SERIES_L,
    BPF_SERIES_LOSS,
    BPF_SHUNT_C,
    BPF_SHUNT_L,
    BPF_SHUNT_LOSS,
    BPF_SOURCE_G,
    BPF_VARIATION,
    MSD_DAMPERS,
    MSD_MASSES,
    MSD_SPRINGS,
    MSD_VARIATION,
)


def assert_uniform_about(aps, nominals, variation):
    """Every parameter is uniform on nominal * (1 +- variation)."""
    nominals = np.asarray(nominals)
    assert [d.kind for d in aps.dists] == ["uniform"] * nominals.size
    assert_allclose([d.params for d in aps.dists],
                    np.column_stack([nominals * (1 - variation),
                                     nominals * (1 + variation)]), rtol=1e-15)


def msd_stiffness(springs):
    """Independent stiffness assembly from the spring connectivity."""
    pairs = ((None, 0), (0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4))
    K = np.zeros((5, 5))
    for k_val, (a, b) in zip(springs, pairs):
        if a is None:
            K[b, b] += k_val
        else:
            K[a, a] += k_val
            K[b, b] += k_val
            K[a, b] -= k_val
            K[b, a] -= k_val
    return K


def msd_damping(dampers):
    pairs = ((None, 0), (0, 1), (1, 2), (2, 3), (3, 4))
    D = np.zeros((5, 5))
    for d_val, (a, b) in zip(dampers, pairs):
        if a is None:
            D[b, b] += d_val
        else:
            D[a, a] += d_val
            D[b, b] += d_val
            D[a, b] -= d_val
            D[b, a] -= d_val
    return D


class TestMsdModel:
    def test_parameter_layout(self):
        aps = build_msd()
        assert aps.q == 17
        assert aps.n == 10
        means = aps.nominal()
        assert_allclose(means[:5], MSD_MASSES)
        assert_allclose(means[5:12], MSD_SPRINGS)
        assert_allclose(means[12:], MSD_DAMPERS)
        assert_uniform_about(aps, MSD_MASSES + MSD_SPRINGS + MSD_DAMPERS,
                             MSD_VARIATION)

    def test_nominal_realization_structure(self):
        aps = build_msd()
        sysn = eval_at(aps, aps.nominal())
        E = np.asarray(sysn.E)
        A = np.asarray(sysn.A)
        assert_allclose(E[:5, :5], np.eye(5))
        assert_allclose(E[5:, 5:], np.diag(MSD_MASSES))
        assert_allclose(A[:5, 5:], np.eye(5))
        assert_allclose(A[:5, :5], 0.0)
        assert_allclose(A[5:, :5], -msd_stiffness(MSD_SPRINGS), rtol=1e-13)
        assert_allclose(A[5:, 5:], -msd_damping(MSD_DAMPERS), rtol=1e-13)
        # output is the last position, input drives the first mass
        assert_allclose(np.asarray(sysn.C).ravel(),
                        np.eye(10)[4], rtol=1e-14)
        B = np.asarray(sysn.B).ravel()
        assert B[5] == MSD_SPRINGS[0]
        assert_allclose(np.delete(B, 5), 0.0)

    def test_nominal_stable_but_not_dissipative(self):
        aps = build_msd()
        sysn = eval_at(aps, aps.nominal())
        spectrum = pencil_spectrum(np.asarray(sysn.E), np.asarray(sysn.A))
        assert spectrum.abscissa < 0
        assert spectrum.n_infinite == 0
        assert not is_dissipative(sysn.E, sysn.A).ok

    def test_random_realizations_stable(self):
        aps = build_msd()
        rng = np.random.default_rng(81)
        for _ in range(10):
            mu = np.array([d.sample(rng, 1)[0] for d in aps.dists])
            sysm = eval_at(aps, mu)
            assert pencil_spectrum(np.asarray(sysm.E),
                                   np.asarray(sysm.A)).abscissa < 0


class TestBandpassModel:
    def test_parameter_layout(self):
        aps = build_bandpass()
        nominals = (BPF_SERIES_C + BPF_SHUNT_C + BPF_SERIES_L + BPF_SHUNT_L
                    + (BPF_SOURCE_G, BPF_LOAD_G) + BPF_SERIES_LOSS + BPF_SHUNT_LOSS)
        assert_allclose(aps.nominal(), nominals)
        assert_uniform_about(aps, nominals, BPF_VARIATION)
        # 7 capacitances stamp E positively, 7 inductances negate one E
        # diagonal entry (symmetric nodal form), 9 conductances stamp A
        E_trace = [None if Ep is None else np.trace(Ep) for Ep in aps.E_parts]
        assert all(t is not None and t > 0 for t in E_trace[:7])
        assert E_trace[7:14] == [-1.0] * 7
        assert E_trace[14:] == [None] * 9
        assert all(Ap is None for Ap in aps.A_parts[:14])
        assert all(Ap is not None for Ap in aps.A_parts[14:])

    def test_dimensions_and_symmetry(self):
        aps = build_bandpass()
        assert aps.q == 23
        assert aps.n == 23
        sysn = eval_at(aps, aps.nominal())
        E = np.asarray(sysn.E)
        A = np.asarray(sysn.A)
        assert_allclose(E, E.T)
        assert_allclose(A, A.T)
        # symmetry is a property of the whole family, not just the mean
        rng = np.random.default_rng(82)
        mu = np.array([d.sample(rng, 1)[0] for d in aps.dists])
        Em = np.asarray(eval_at(aps, mu).E)
        Am = np.asarray(eval_at(aps, mu).A)
        assert_allclose(Em, Em.T)
        assert_allclose(Am, Am.T)

    def test_index_one_structure(self):
        aps = build_bandpass()
        sysn = eval_at(aps, aps.nominal())
        E = np.asarray(sysn.E)
        spectrum = pencil_spectrum(E, np.asarray(sysn.A))
        n_alg = aps.n - np.linalg.matrix_rank(E)
        assert n_alg == 9
        assert spectrum.n_infinite == n_alg
        assert spectrum.abscissa < 0

    def test_band_pass_response(self):
        aps = build_bandpass()
        sysn = eval_at(aps, aps.nominal())
        mags = {om: abs(transfer_eval(sysn, 1j * om)[0, 0])
                for om in (1e3, 1e5, 1e7)}
        assert mags[1e5] > 1e3 * mags[1e3]
        assert mags[1e5] > 1e3 * mags[1e7]

    def test_regularization_yields_ode(self):
        aps = regularize_affine(build_bandpass(), 1e-5)
        sysn = eval_at(aps, aps.nominal())
        spectrum = pencil_spectrum(np.asarray(sysn.E), np.asarray(sysn.A))
        assert spectrum.abscissa < 0
        assert np.linalg.matrix_rank(np.asarray(sysn.E)) == 23


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.model == "msd"
        assert cfg.technique == "none"
        assert cfg.r_max == 30
        assert cfg.quad_nodes is None
        resolved = ("expansion_point", "omega_scale", "stab_scale", "beta")
        assert [getattr(cfg, k) for k in resolved] == [0.7, 1.0, 1.0, None]
        bpf = RunConfig(model="bpf")
        assert [getattr(bpf, k) for k in resolved] == [1.0e6, 1.0e5, 1.0e6, 1e-5]
        # a field that is set is kept; only the unset ones come from the table
        cfg = RunConfig(model="bpf", expansion_point=2.0e6, beta=1e-6)
        assert (cfg.expansion_point, cfg.omega_scale, cfg.beta) == (2.0e6, 1.0e5, 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(model="other")
        with pytest.raises(ValueError):
            RunConfig(technique="iv")
        with pytest.raises(ValueError):
            RunConfig(r_max=0)

    @pytest.mark.parametrize("key", ["omega_scale", "stab_scale"])
    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_nonpositive_scale_rejected(self, key, value):
        # refused when the config is built, naming the key, not when the
        # technique-i or error rule is built after projection and Arnoldi
        with pytest.raises(ValueError, match=key):
            RunConfig(technique="i", **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("with_errors", "false"), ("with_errors", 0), ("degree", 1.0),
        ("degree", True), ("r_max", "30"), ("nodes", None), ("beta", "1e-5"),
        ("expansion_point", False), ("model", 1), ("out", 3)])
    def test_from_dict_rejects_wrong_types(self, key, value):
        # a JSON config's "false" is truthy and 1.0 or "30" fail deep inside
        # the pipeline, so each is refused up front, naming the key
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict({key: value})
        # an integer is a valid float
        assert RunConfig.from_dict({"expansion_point": 2}).expansion_point == 2

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            RunConfig.from_dict({"model": "msd", "foo": 1})
        cfg = RunConfig.from_dict({"model": "bpf", "degree": 2})
        assert cfg.model == "bpf"
        assert cfg.degree == 2


class TestRunExperiment:
    def test_msd_pipeline_report(self, tmp_path):
        cfg = RunConfig(model="msd", degree=1, technique="none", r_max=5,
                        with_errors=True, error_nodes=50,
                        out=str(tmp_path / "run"))
        result = run_experiment(cfg)
        assert result["dimension"] == 180
        assert result["blocks"] == 18
        assert result["state_dim"] == 10
        assert result["outputs"] == 18
        assert len(result["rows"]) == 5
        assert set(result["timings"]) >= {"assemble", "arnoldi", "sweep", "total"}
        assert (tmp_path / "run" / "sweep.csv").exists()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["r_max"] == 5
        csv_lines = (tmp_path / "run" / "sweep.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 6

    def test_technique_iii_reports_margin(self):
        # the certified margin is a sufficient condition only; at the full
        # parameter spread it may be positive while every reduction is stable
        cfg = RunConfig(model="msd", degree=1, technique="iii", r_max=3,
                        with_errors=False)
        result = run_experiment(cfg)
        assert "margin" in result["diagnostics"]
        assert result["diagnostics"]["mu_star"] == list(build_msd().nominal())
        assert result["n_stable"] == 3

    def test_technique_ii_node_count_follows_the_basis(self):
        # 2 m = 342 samples for the m = 171 polynomials of degree 2; a fixed
        # count of 100 gives a singular chaos Gram matrix and is refused
        cfg = RunConfig(model="msd", degree=2, technique="ii", with_errors=False)
        result = run_experiment(cfg)
        assert result["diagnostics"]["nodes"] == 342
        assert result["unstable_orders"] == []
        assert result["failed_orders"] == []
        assert len(result["rows"]) == 30

    def test_degree_zero_collapses_to_mean_system(self):
        cfg = RunConfig(model="msd", degree=0, technique="none", r_max=3,
                        with_errors=False)
        result = run_experiment(cfg)
        assert result["dimension"] == 10
        assert result["blocks"] == 1
