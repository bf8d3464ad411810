"""End-to-end acceptance checks; each test prints one pass/fail line."""

import math

import numpy as np
import scipy.linalg as sla
from numpy.testing import assert_allclose

import sgmor.bench
from sgmor import (
    Distribution,
    FrequencyRule,
    LTISystem,
    RunConfig,
    assemble,
    assemble_output,
    assemble_via_quadrature,
    build_bandpass,
    build_msd,
    build_basis,
    eval_at,
    freq_projection,
    h2_norm,
    h2_relative_error,
    is_dissipative,
    monte_carlo_rule,
    pencil_spectrum,
    regularize,
    regularize_affine,
    run_experiment,
    solve_lyap_direct,
)
from sgmor.stabilize import _technique_iii_margin

from _gen import (
    lyap_residual,
    random_dissipative,
    random_orthonormal,
    random_spd,
    random_stable_generalized,
    random_stable_ode,
    random_stable_sparse,
    stacked,
    theta_family,
)
from test_stabilize import dissipative_family, stable_family


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} [{name}] failed{suffix}"


def test_criterion_1_combinatorics():
    msd = build_msd()
    msd_basis = build_basis(msd.dists, 3)
    gal_msd = assemble(msd, msd_basis)
    msd_ok = gal_msd.n == 11400 and gal_msd.n_out == 1140

    bpf = regularize_affine(build_bandpass(), 1e-5)
    bpf_basis = build_basis(bpf.dists, 2)
    gal_bpf = assemble(bpf, bpf_basis)
    bpf_ok = gal_bpf.n == 6900 and gal_bpf.n_out == 300

    counts_ok = (msd_basis.m == math.comb(17 + 3, 3) == 1140
                 and bpf_basis.m == math.comb(23 + 2, 2) == 300)

    _report(1, "combinatorics", counts_ok and msd_ok and bpf_ok,
            f"msd {gal_msd.n}x{gal_msd.n_out}, bpf {gal_bpf.n}x{gal_bpf.n_out}")


def test_criterion_2_lyapunov_correctness():
    rng = np.random.default_rng(2024)
    worst_res = 0.0
    all_spd = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        E, A = random_stable_generalized(rng, n)
        F = random_spd(rng, n)
        M = solve_lyap_direct(E, A, F)
        worst_res = max(worst_res, lyap_residual(E, A, F, M))
        all_spd = all_spd and np.linalg.eigvalsh(M).min() > 0
    _report(2, "lyapunov", worst_res < 1e-10 and all_spd,
            f"100 trials, max residual {worst_res:.2e}")


def test_criterion_3_h2_oracle():
    rng = np.random.default_rng(3033)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        A = random_stable_ode(rng, n, margin=0.3)
        sys_n = LTISystem(E=np.eye(n), A=A, B=rng.standard_normal((n, 1)),
                          C=rng.standard_normal((1, n)))
        Ai = sys_n.A
        P = sla.solve_continuous_lyapunov(Ai, -sys_n.B @ sys_n.B.T)
        ref = float(np.sqrt(np.trace(sys_n.C @ P @ sys_n.C.T)))
        worst = max(worst, abs(h2_norm(sys_n) - ref) / ref)

    scalar = LTISystem(E=np.array([[1.0]]), A=np.array([[-1.0]]),
                       B=np.array([[1.0]]), C=np.array([[1.0]]))
    scalar_dev = abs(h2_norm(scalar) - 1.0 / np.sqrt(2.0))
    _report(3, "h2-oracle", worst < 1e-6 and scalar_dev < 1e-8,
            f"50 trials, max deviation {worst:.2e}, scalar {scalar_dev:.2e}")


def test_criterion_4_stability_theory():
    rng = np.random.default_rng(4044)

    stable_count = sum(
        pencil_spectrum(*random_dissipative(rng, int(rng.integers(2, 31)))).abscissa < 0
        for _ in range(200))

    projected = 0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        E, A = random_dissipative(rng, n)
        V = random_orthonormal(rng, n, int(rng.integers(1, n)))
        projected += is_dissipative(V.T @ E @ V, V.T @ A @ V).ok

    transformed = 0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        E, A = random_stable_generalized(rng, n, margin=0.3)
        M = solve_lyap_direct(E, A, np.eye(n))
        transformed += is_dissipative(E.T @ M @ E, E.T @ M @ A).ok

    family_proj = 0
    for _ in range(50):
        aps = dissipative_family(rng, int(rng.integers(2, 6)),
                                 int(rng.integers(1, 4)))
        gal = assemble(aps, build_basis(aps.dists, 2))
        family_proj += is_dissipative(gal.E.toarray(), gal.A.toarray()).ok

    quad_ok = 0
    for trial in range(50):
        aps = dissipative_family(rng, int(rng.integers(2, 6)),
                                 int(rng.integers(1, 4)))
        basis = build_basis(aps.dists, 2)
        quad = monte_carlo_rule(aps.dists, 20, seed=trial)

        def matrix_fn(mu):
            sysm = eval_at(aps, mu)
            return sysm.A, sysm.B, sysm.E

        gal = assemble_via_quadrature(stacked(matrix_fn), basis, quad)
        Ed, Ad = gal.E.toarray(), gal.A.toarray()
        lam_E = np.linalg.eigvalsh(0.5 * (Ed + Ed.T))
        lam_S = np.linalg.eigvalsh(Ad + Ad.T)
        quad_ok += (lam_E.min() >= -1e-10 * max(np.abs(lam_E).max(), 1.0)
                    and lam_S.max() <= 1e-10 * max(np.abs(lam_S).max(), 1.0))

    margin_dev = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        aps = stable_family(rng, n, int(rng.integers(1, 3)))
        F = random_spd(rng, n)
        frozen = theta_family(aps, 0.0)
        fom = assemble(frozen, build_basis(frozen.dists, 1))
        margin_dev = max(margin_dev, abs(_technique_iii_margin(fom, frozen, F)
                                         + np.linalg.eigvalsh(F)[0]))

    ok = (stable_count == 200 and projected == 100 and transformed == 100
          and family_proj == 50 and quad_ok == 50 and margin_dev < 1e-8)
    _report(4, "stability-theory", ok,
            f"stability {stable_count}/200, projection {projected}/100, "
            f"transform {transformed}/100, family {family_proj}/50, "
            f"quadrature {quad_ok}/50, margin dev {margin_dev:.2e}")


def test_criterion_5_stability_end_to_end():
    results, failed = {}, {}
    for model in ("msd", "bpf"):
        for technique in ("none", "i", "iii"):
            cfg = RunConfig(model=model, degree=1, technique=technique,
                            nodes=64, r_max=30, with_errors=False)
            res = run_experiment(cfg)
            results[(model, technique)] = res["unstable_orders"]
            failed[(model, technique)] = res["failed_orders"]

    ok = True
    parts = []
    for model in ("msd", "bpf"):
        plain = results[(model, "none")]
        ok = ok and len(plain) >= 1
        for technique in ("i", "iii"):
            ok = ok and results[(model, technique)] == []
            ok = ok and failed[(model, technique)] == []
        parts.append(f"{model}: plain {len(plain)} unstable, "
                     f"i {len(results[(model, 'i')])}, "
                     f"iii {len(results[(model, 'iii')])}, failed "
                     f"{len(failed[(model, 'i')]) + len(failed[(model, 'iii')])}")
    _report(5, "stability-preservation", ok, "; ".join(parts))


def test_criterion_6_frequency_projection_convergence():
    worst_final = 0.0
    all_decreasing = True
    for seed in range(5):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(20, 101))
        E, A = random_stable_sparse(rng, n)
        F = np.eye(n)
        V = random_orthonormal(rng, n, 5)
        W_ref = solve_lyap_direct(E, A, F) @ (E @ V)
        scale = np.linalg.norm(W_ref)

        def error(k):  # with X = I the third product is W^T for W = M E V
            WT = freq_projection(E, A, V, FrequencyRule.gauss(k), np.eye(n))[2]
            return np.linalg.norm(WT.T - W_ref) / scale

        err8, err128 = error(8), error(128)
        all_decreasing = all_decreasing and err128 < err8
        worst_final = max(worst_final, err128)
    _report(6, "frequency-projection", all_decreasing and worst_final < 1e-4,
            f"5 systems, worst error at 128 nodes {worst_final:.2e}")


def test_criterion_7_regularization_contract():
    beta = 1e-5
    aps = build_bandpass()
    basis = build_basis(aps.dists, 1)

    gal_first = assemble(regularize_affine(aps, beta), basis)
    gal_plain = assemble(aps, basis)
    E2, A2 = regularize(gal_plain.E, gal_plain.A, beta)
    max_diff = max(abs(X - Y).max() / max(abs(X).max(), abs(Y).max())
                   for X, Y in ((gal_first.E, E2), (gal_first.A, A2)))
    commute_ok = max_diff < 1e-12

    def pattern(X):
        coo = X.tocoo()
        mask = coo.data != 0
        return set(zip(coo.row[mask].tolist(), coo.col[mask].tolist()))

    pattern_ok = (pattern(gal_first.E) == pattern(E2)
                  and pattern(gal_first.A) == pattern(A2))

    dae = eval_at(aps, aps.nominal())
    reg = eval_at(regularize_affine(aps, beta), aps.nominal())
    rule = FrequencyRule.gauss(800, omega_scale=1.0e5)
    deviation = h2_relative_error(dae, reg, freq_rule=rule)
    h2_ok = deviation < 1e-3

    _report(7, "regularization-contract",
            commute_ok and pattern_ok and h2_ok,
            f"max diff {max_diff:.1e}, "
            f"H2 deviation {deviation:.2e}")


def test_criterion_8_accuracy_floor():
    plain = run_experiment(RunConfig(model="msd", degree=1, technique="none",
                                     r_max=30, with_errors=True,
                                     error_nodes=200))
    tech = run_experiment(RunConfig(model="msd", degree=1, technique="i",
                                    nodes=64, r_max=30, with_errors=True,
                                    error_nodes=200))
    row_i = tech["rows"][-1]
    assert row_i["r"] == 30 and row_i["stable"]
    stable_errs = [(row["r"], row["rel_h2_error"]) for row in plain["rows"]
                   if row["stable"] and row["rel_h2_error"] is not None]
    r_ref, err_plain = stable_errs[-1]
    ratio = row_i["rel_h2_error"] / err_plain
    _report(8, "accuracy-floor", ratio <= 2.0,
            f"technique i at r=30: {row_i['rel_h2_error']:.2e}, "
            f"plain at r={r_ref}: {err_plain:.2e}, ratio {ratio:.2f}")


def test_criterion_9_determinism(tmp_path):
    configs = [
        dict(model="msd", degree=1, technique="ii", quad_nodes=30, r_max=10,
             with_errors=True, error_nodes=100, seed=7),
        dict(model="bpf", degree=1, technique="i", nodes=16, r_max=6,
             with_errors=True, error_nodes=60, seed=3),
    ]
    ok = True
    for i, base in enumerate(configs):
        # two cold runs, each evaluating its own error reference, then a
        # warm one that reuses the second run's
        for run in ("a", "b", "warm"):
            if run != "warm":
                sgmor.bench._reference.cache_clear()
            run_experiment(RunConfig(**base, out=str(tmp_path / f"{run}{i}")))
        first, second, warm = ((tmp_path / f"{run}{i}" / "sweep.csv").read_bytes()
                               for run in ("a", "b", "warm"))
        ok = ok and first == second == warm
    _report(9, "determinism", ok,
            f"{len(configs)} configs byte-identical, cold and warm")
