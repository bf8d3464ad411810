import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import sgmor.bench
import sgmor.mor
import sgmor.stabilize
import sgmor.systems
from sgmor import (
    NodeKronSum,
    RunConfig,
    arnoldi,
    build_bandpass,
    build_basis,
    build_msd,
    error_reference,
    eval_at,
    is_dissipative,
    monte_carlo_rule,
    pencil_spectrum,
    reduce,
    regularize_affine,
    run_experiment,
    stability_sweep,
    technique_ii,
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
    project,
    stabilized_basis,
)
from sgmor.cli import main
from sgmor.frequency import FrequencyRule

from _gen import transfer_eval


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


def _digest(arrays):
    """sha256 prefix of a sequence of arrays and Nones: each array's shape,
    dtype and values, hashed as a + 0.0 so that -0.0 and +0.0 agree."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"None;")
        else:
            a = np.ascontiguousarray(a + 0.0)
            h.update(f"{a.shape}{a.dtype.str};".encode() + a.tobytes())
    return h.hexdigest()[:16]


def family_pins(aps):
    """Digests of every matrix, part and distribution of a family."""
    pins = {name: _digest([getattr(aps, name)]) for name in ("E0", "A0", "B0", "C0")}
    pins.update({name: _digest(getattr(aps, name))
                 for name in ("E_parts", "A_parts", "B_parts", "C_parts")})
    dists = repr([(d.kind, d.params) for d in aps.dists]).encode()
    pins["dists"] = hashlib.sha256(dists).hexdigest()[:16]
    return pins


def present(parts):
    """Indices of the parts that are not None."""
    return [i for i, p in enumerate(parts) if p is not None]


class TestFamilyPins:
    """Both families, array for array and distribution for distribution, as
    the element stamps built them when these digests were recorded."""

    def test_msd(self):
        aps = build_msd()
        assert present(aps.E_parts) == list(range(5))
        assert present(aps.A_parts) == list(range(5, 17))
        assert present(aps.B_parts) == [5]
        assert present(aps.C_parts) == []
        assert family_pins(aps) == {
            "E0": "e59f8df9d8dddfa2", "A0": "4277e6d52a986de7",
            "B0": "5295ca4b80ea7ab0", "C0": "3bd88ef56ec4dd7d",
            "E_parts": "2eaeeef3498659e1", "A_parts": "b765b805638fe32b",
            "B_parts": "ebe2eb4daa5cd9cf", "C_parts": "50d633f07d81df17",
            "dists": "240ed3ccb23a0053"}

    def test_bandpass(self):
        aps = build_bandpass()
        assert present(aps.E_parts) == list(range(14))
        assert present(aps.A_parts) == list(range(14, 23))
        assert present(aps.B_parts) == present(aps.C_parts) == []
        assert family_pins(aps) == {
            "E0": "8bf07a175e109e72", "A0": "3f1b4e48cf00b957",
            "B0": "4ef3769ee109c71f", "C0": "6f336e397143b089",
            "E_parts": "a7eeb21c0b37895a", "A_parts": "3d3b707b3affa5ef",
            "B_parts": "151ad80a2bf62c8b", "C_parts": "151ad80a2bf62c8b",
            "dists": "468d267c9e398b39"}

    def test_regularized_bandpass(self):
        aps = regularize_affine(build_bandpass())
        assert present(aps.E_parts) == present(aps.A_parts) == list(range(23))
        assert family_pins(aps) == {
            "E0": "06de33a5ab213dc9", "A0": "3f1b4e48cf00b957",
            "B0": "4ef3769ee109c71f", "C0": "6f336e397143b089",
            "E_parts": "e41f88a60be42505", "A_parts": "8da21c7571d7c3b2",
            "B_parts": "151ad80a2bf62c8b", "C_parts": "151ad80a2bf62c8b",
            "dists": "468d267c9e398b39"}


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
        ("expansion_point", float("nan")), ("expansion_point", float("inf")),
        ("omega_scale", float("inf")), ("stab_scale", float("inf")),
        ("beta", float("nan")), ("beta", float("-inf")), ("expansion_point", 10 ** 400)])
    def test_nonfinite_value_rejected(self, key, value):
        # each used to pass, run the projection, and fail in Arnoldi or the
        # technique-i rule as a singular pencil at a nan shift; an integer
        # past the largest float is no finite float either
        with pytest.raises(ValueError, match=f"config key '{key}' must be finite"):
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

    def test_technique_ii_without_errors_assembles_nothing(self, monkeypatch):
        # it reduces its re-assembled system; the projected one would only be
        # the error sweep's reference
        assemble = sgmor.bench.assemble
        calls = []

        def counting_assemble(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(sgmor.bench, "assemble", counting_assemble)
        result = run_experiment(RunConfig(model="msd", degree=1, technique="ii",
                                          r_max=3, with_errors=False))
        assert calls == []
        assert result["dimension"] == 180
        assert result["outputs"] == 18
        assert result["failed_orders"] == []
        run_experiment(RunConfig(model="msd", degree=1, technique="ii", r_max=3,
                                 error_nodes=20))
        assert len(calls) == 1

    def test_technique_ii_degree_2_is_small_and_stable(self):
        # the re-assembled system is held as S, weights and node matrices:
        # about 0.44 MB each for E and A; the dense pair would take 47 MB
        cfg = RunConfig(model="msd", degree=2, technique="ii", quad_nodes=200,
                        with_errors=False)
        aps = build_msd()
        fom = technique_ii(aps, build_basis(aps.dists, 2),
                           monte_carlo_rule(aps.dists, 200, seed=cfg.seed))
        assert fom.E.nbytes < 2 ** 20
        assert fom.A.nbytes < 2 ** 20
        arn = arnoldi(fom.E, fom.A, fom.B, cfg.expansion_point, cfg.r_max)
        report = stability_sweep(reduce(fom, arn.V))
        assert len(report.rows) == 30
        assert report.failed_orders == []
        assert all(row.stable for row in report.rows)

    def test_bpf_technique_ii_solves_by_gmres(self, monkeypatch):
        # the regularized descriptor filter: its re-assembled pencil goes
        # through the GMRES backend of shifted_solver
        pencils = []
        node_sum_solver = sgmor.systems._node_sum_solver

        def spy(K, gram_inv, singular):
            pencils.append(K)
            return node_sum_solver(K, gram_inv, singular)

        monkeypatch.setattr(sgmor.systems, "_node_sum_solver", spy)
        result = run_experiment(RunConfig(model="bpf", degree=1, technique="ii",
                                          with_errors=False))
        assert len(pencils) == 1
        assert result["failed_orders"] == []
        assert len(result["rows"]) == 30

    def test_technique_i_factorization_count(self, monkeypatch):
        # one minimum-degree ordering each for Arnoldi's real shift (MSD's
        # pencil has a zero-free diagonal), technique i's 32 nodes and the
        # error grid's 100 points, every later complex shift reusing its own
        splu = spla.splu
        orderings = []

        def counting_splu(K, **options):
            orderings.append(options.get("permc_spec"))
            return splu(K, **options)

        monkeypatch.setattr(spla, "splu", counting_splu)
        run_experiment(RunConfig(model="msd", degree=1, technique="i", nodes=64,
                                 error_nodes=200))
        assert len(orderings) == 133
        assert orderings.count(None) == 0
        assert orderings.count("MMD_AT_PLUS_A") == 3
        assert orderings.count("NATURAL") == 130

    def test_warm_error_reference_factorization_count(self, monkeypatch):
        # a second run on the same projected system and error grid, at
        # another expansion point, reuses the grid's reference values: only
        # Arnoldi's real shift and technique i's 32 nodes are factored
        cfg = dict(model="msd", degree=1, technique="i", nodes=64, error_nodes=200)
        run_experiment(RunConfig(**cfg))
        splu = spla.splu
        orderings = []

        def counting_splu(K, **options):
            orderings.append(options.get("permc_spec"))
            return splu(K, **options)

        monkeypatch.setattr(spla, "splu", counting_splu)
        warm = run_experiment(RunConfig(**cfg, expansion_point=0.9))["rows"]
        assert len(orderings) == 33
        assert orderings.count("MMD_AT_PLUS_A") == 2
        assert orderings.count("NATURAL") == 31
        sgmor.bench._reference.cache_clear()
        assert run_experiment(RunConfig(**cfg, expansion_point=0.9))["rows"] == warm

    def test_repeated_technique_i_call_is_identical(self):
        # the benchmark repeats its first reference call and compares the
        # sweeps byte for byte: a warm call, and one that evaluates its
        # error reference again, give the rows of the first
        cfg = RunConfig(model="msd", degree=2, technique="i", nodes=64, error_nodes=200)
        first = run_experiment(cfg)["rows"]
        assert run_experiment(cfg)["rows"] == first
        sgmor.bench._reference.cache_clear()
        assert run_experiment(cfg)["rows"] == first

    def test_error_reference_follows_the_configuration(self, monkeypatch):
        # a run that changes the projected system or the error grid
        # evaluates its own reference; a new expansion point does not
        references = []
        transfer_on_grid = sgmor.mor.transfer_on_grid

        def spy(sys, omegas):
            if sys.n > 4:  # the reduced models have order r_max = 4
                references.append(sys.n)
            return transfer_on_grid(sys, omegas)

        monkeypatch.setattr(sgmor.mor, "transfer_on_grid", spy)
        base = dict(model="msd", degree=1, technique="none", r_max=4, error_nodes=40)
        run_experiment(RunConfig(**base))
        run_experiment(RunConfig(**base, expansion_point=0.9))
        assert references == [180]
        for change in (dict(error_nodes=60), dict(omega_scale=2.0), dict(degree=0),
                       dict(beta=1e-5)):
            del references[:]
            run_experiment(RunConfig(**{**base, **change}))
            assert references == [10 if change.get("degree") == 0 else 180], change

    def test_degree_zero_collapses_to_mean_system(self):
        cfg = RunConfig(model="msd", degree=0, technique="none", r_max=3,
                        with_errors=False)
        result = run_experiment(cfg)
        assert result["dimension"] == 10
        assert result["blocks"] == 1


@pytest.fixture
def assemblies(monkeypatch):
    """The degree of every basis that bench assembles a projection on."""
    calls = []
    assemble = sgmor.bench.assemble

    def counting(aps, basis):
        calls.append(basis.degree)
        return assemble(aps, basis)

    monkeypatch.setattr(sgmor.bench, "assemble", counting)
    return calls


class TestProjectionCache:
    def test_new_expansion_point_reuses_the_projection(self, assemblies, cold_caches):
        # the projected system and the margin do not depend on the expansion
        # point; a warm run must write what a cold one writes, bit for bit
        base = dict(model="msd", degree=1, technique="iii")
        run_experiment(RunConfig(**base, expansion_point=0.7))
        warm = run_experiment(RunConfig(**base, expansion_point=0.9))
        assert assemblies == [1]
        cold_caches()
        cold = run_experiment(RunConfig(**base, expansion_point=0.9))
        assert assemblies == [1, 1]
        assert cold["rows"] == warm["rows"]
        assert cold["diagnostics"] == warm["diagnostics"]

    def test_key_is_model_degree_and_beta(self, assemblies):
        base = dict(model="msd", degree=1)
        aps, basis, fom = project(RunConfig(**base))
        # neither the technique nor the expansion point is part of the key
        same = project(RunConfig(**base, technique="i", expansion_point=0.9, seed=3))
        assert same[0] is aps and same[1] is basis and same[2] is fom
        for change in (dict(degree=0), dict(beta=1e-5), dict(model="bpf", degree=1)):
            before = len(assemblies)
            assert project(RunConfig(**{**base, **change}))[2] is not fom
            assert len(assemblies) == before + 1, change
        assert project(RunConfig(**base))[2] is fom
        assert len(assemblies) == 4

    def test_least_recently_used_entry_evicted_at_the_bound(self, assemblies):
        bound = sgmor.bench._PROJECTION_CACHE_SIZE
        configs = [RunConfig(model="msd", degree=0, beta=1e-5 * (j + 1))
                   for j in range(bound + 1)]
        for cfg in configs:
            project(cfg)
        project(configs[-1])  # newest: kept
        assert len(assemblies) == bound + 1
        project(configs[0])  # oldest: evicted
        assert len(assemblies) == bound + 2

    def test_cached_arrays_are_read_only(self):
        aps, basis, fom = project(RunConfig(model="bpf", degree=1))
        arrays = [fom.B, basis.exponents]
        for X in (fom.E, fom.A, fom.C):
            arrays += [X.data, X.indices, X.indptr]
        for parts in (aps.E_parts, aps.A_parts, aps.B_parts, aps.C_parts):
            arrays += [part for part in parts if part is not None]
        arrays += [aps.E0, aps.A0, aps.B0, aps.C0]
        assert not any(a.flags.writeable for a in arrays)
        A_data, A0 = fom.A.data.copy(), aps.A0.copy()
        with pytest.raises(ValueError, match="read-only"):
            fom.A.data *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            aps.A0[0, 0] = 1.0
        again = project(RunConfig(model="bpf", degree=1))
        assert np.array_equal(again[2].A.data, A_data)
        assert np.array_equal(again[0].A0, A0)

    def test_technique_ii_with_errors_shares_the_projection(self, assemblies):
        base = dict(model="msd", degree=1, r_max=3, error_nodes=20)
        run_experiment(RunConfig(**base, technique="none"))
        run_experiment(RunConfig(**base, technique="ii"))
        assert assemblies == [1]


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The dimension of every matrix that stabilize hands to ARPACK."""
    calls = []
    eigsh = sgmor.stabilize.spla.eigsh

    def counting(S, *args, **kwargs):
        calls.append(S.shape[0])
        return eigsh(S, *args, **kwargs)

    monkeypatch.setattr(sgmor.stabilize.spla, "eigsh", counting)
    return calls


class TestMarginAndReferenceCaches:
    """Technique iii's margin is kept per (model, degree, beta), and the
    error reference per (model, degree, beta, error_nodes, omega_scale)."""

    def test_new_expansion_point_reuses_the_margin(self, eigsh_calls):
        base = dict(model="msd", degree=1, technique="iii", with_errors=False)
        cold = run_experiment(RunConfig(**base, expansion_point=0.7))
        assert eigsh_calls == [180]
        warm = run_experiment(RunConfig(**base, expansion_point=0.9))
        assert eigsh_calls == [180]
        assert warm["diagnostics"] == cold["diagnostics"]

    def test_margin_key_is_model_degree_and_beta(self, eigsh_calls):
        base = dict(model="msd", degree=1, technique="iii", with_errors=False, r_max=3)
        run_experiment(RunConfig(**base))
        for change in (dict(degree=0), dict(beta=1e-5), dict(model="bpf")):
            before = len(eigsh_calls)
            run_experiment(RunConfig(**{**base, **change}))
            assert len(eigsh_calls) == before + 1, change
        run_experiment(RunConfig(**base, expansion_point=0.9))
        assert len(eigsh_calls) == 4

    def test_reference_arrays_are_read_only(self):
        cfg = RunConfig(model="msd", degree=1)
        reference = sgmor.bench._reference(cfg.model, cfg.degree, cfg.beta,
                                           cfg.error_nodes, cfg.omega_scale)
        assert reference is sgmor.bench._reference(cfg.model, cfg.degree, cfg.beta,
                                                   cfg.error_nodes, cfg.omega_scale)
        for a in (reference.omegas, reference.weights, reference.values):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def assert_same_rows(rows, reference):
    """Two lists of sweep rows as run_experiment reports them: flags and
    notes equal, abscissas and H2 errors to 1e-12 relative."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert {k: row[k] for k in ("r", "stable", "note")} == \
            {k: ref[k] for k in ("r", "stable", "note")}
        assert_allclose(row["abscissa"], ref["abscissa"], rtol=1e-12, atol=0)
        if ref["rel_h2_error"] is None:
            assert row["rel_h2_error"] is None
        else:
            assert_allclose(row["rel_h2_error"], ref["rel_h2_error"],
                            rtol=1e-12, atol=0)


def uncapped_rows(cfg):
    """The sweep of cfg built from the pipeline's stages directly, outside
    run_experiment and so with the bundled BLAS at their own thread counts."""
    (_, _, fom), _, outcome = stabilized_basis(cfg, timings={})
    rule = FrequencyRule.gauss(cfg.error_nodes, omega_scale=cfg.omega_scale)
    return [asdict(row) for row in
            stability_sweep(outcome.reduced, error_reference(fom, rule)).rows]


class TestScipyBlasThreads:
    """run_experiment and the command line run the OpenBLAS bundled with
    NumPy and with SciPy on one thread, NumPy's at its outside count within
    technique ii's node-sum solves, and give both back their thread counts
    afterwards."""

    @pytest.fixture
    def threads(self):
        """threads() reads {library: thread count}; both start at 2."""
        libs = sgmor.systems._bundled_openblas()
        if set(libs) != {"numpy", "scipy"}:
            pytest.skip("NumPy or SciPy links no bundled OpenBLAS with a "
                        "known thread-count symbol")
        before = {name: get() for name, (get, _) in libs.items()}
        for _, set_ in libs.values():
            set_(2)  # a count above one, so that the cap and the restore both show
        yield lambda: {name: get() for name, (get, _) in libs.items()}
        for name, (_, set_) in libs.items():
            set_(before[name])

    @pytest.fixture
    def during(self, threads, monkeypatch):
        """The thread counts seen each time the pipeline reaches Arnoldi."""
        seen = []
        arnoldi = sgmor.bench.arnoldi

        def recording(*args):
            seen.append(threads())
            return arnoldi(*args)

        monkeypatch.setattr(sgmor.bench, "arnoldi", recording)
        return seen

    def test_run_experiment(self, threads, during):
        run_experiment(RunConfig(model="msd", degree=1, technique="iii", r_max=3,
                                 with_errors=False))
        assert during == [{"numpy": 1, "scipy": 1}]
        assert threads() == {"numpy": 2, "scipy": 2}

    def test_command_line(self, threads, during, tmp_path):
        assert main(["stabilize", "--model", "msd", "--technique", "iii",
                     "--rmax", "3", "--out", str(tmp_path)]) == 0
        assert during == [{"numpy": 1, "scipy": 1}]
        assert threads() == {"numpy": 2, "scipy": 2}

    @pytest.mark.parametrize("nested", [False, True])
    def test_node_sum_solves_run_at_the_outside_count(self, threads, during,
                                                      monkeypatch, nested):
        in_solves, in_products = [], []
        gmres, matmul = sgmor.systems._gmres, NodeKronSum.__matmul__

        def gmres_recording(*args):
            in_solves.append(threads()["numpy"])
            return gmres(*args)

        def matmul_recording(self, V):
            in_products.append(threads()["numpy"])
            return matmul(self, V)

        monkeypatch.setattr(sgmor.systems, "_gmres", gmres_recording)
        monkeypatch.setattr(NodeKronSum, "__matmul__", matmul_recording)
        cfg = RunConfig(model="msd", degree=1, technique="ii", r_max=3,
                        with_errors=False)
        if nested:
            with sgmor.systems._blas_serial():
                run_experiment(cfg)
        else:
            run_experiment(cfg)
        assert during == [{"numpy": 1, "scipy": 1}]
        assert in_solves and set(in_solves) == {2}
        # the products inside GMRES run at 2, Arnoldi's and reduce's at 1
        assert set(in_products) == {1, 2}
        assert threads() == {"numpy": 2, "scipy": 2}

    def test_restored_after_a_refusal(self, threads):
        # 10 samples for the 18 chaos polynomials of degree 1
        with pytest.raises(ValueError, match="singular chaos Gram matrix"):
            run_experiment(RunConfig(model="msd", degree=1, technique="ii",
                                     quad_nodes=10, with_errors=False))
        assert threads() == {"numpy": 2, "scipy": 2}

    def test_without_a_bundled_library(self, monkeypatch):
        cfg = RunConfig(model="msd", degree=1, technique="i", r_max=10)
        rows = run_experiment(cfg)["rows"]
        monkeypatch.setattr(sgmor.systems, "_bundled_openblas", lambda: {})
        sgmor.bench._reference.cache_clear()
        assert_same_rows(run_experiment(cfg)["rows"], rows)

    def test_rows_do_not_depend_on_the_thread_count(self, threads):
        # the node-sum solves run at the count set before the call, the rest at 1
        cfg = RunConfig(model="msd", degree=2, technique="ii", quad_nodes=200,
                        with_errors=False)
        numpy_threads = sgmor.systems._bundled_openblas()["numpy"][1]
        rows = []
        for count in (1, 2):
            numpy_threads(count)
            rows.append(run_experiment(cfg)["rows"])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("model, degree, technique", [
        *[("msd", d, t) for d in (1, 2) for t in ("none", "i", "ii", "iii")],
        ("bpf", 1, "iii"),
    ])
    def test_rows_match_the_uncapped_stages(self, model, degree, technique):
        cfg = RunConfig(model=model, degree=degree, technique=technique)
        assert_same_rows(run_experiment(cfg)["rows"], uncapped_rows(cfg))
