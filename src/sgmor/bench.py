"""Benchmark model families and the end-to-end reduction experiment driver.

Two families with independently varied physical parameters:

  * a chain of five masses with seven springs and five dampers (second-order
    mechanics in first-order form, 17 parameters, state dimension 10);
  * a band-pass ladder filter in modified nodal analysis (index-1
    differential-algebraic, 23 parameters, state dimension 23).

run_experiment wires a full pipeline: build, optional regularization,
spectral projection, Krylov basis, optional stabilizing transformation,
stability sweep over reduced orders, and deterministic CSV/JSON reporting.
"""

import json
import numbers
import time
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .frequency import DEFAULT_NODES, FrequencyRule
from .galerkin import assemble
from .mor import arnoldi, stability_sweep
from .pce import Distribution, build_basis, monte_carlo_rule
from .stabilize import (DEFAULT_BETA, regularize_affine, technique_i,
                        technique_ii, technique_iii)
from .systems import AffineParamSystem

# Nominal element values of the mass-spring-damper chain.  Frequencies sit
# near 1 rad/s and damping is light, so reduced models at the default
# expansion point can lose stability without a corrective transformation.
MSD_MASSES = (1.1, 0.9, 1.2, 0.8, 1.0)
MSD_SPRINGS = (1.5, 0.9, 1.2, 1.1, 0.8, 0.6, 0.7)
MSD_DAMPERS = (0.08, 0.06, 0.09, 0.07, 0.05)

# Band-pass ladder nominals: resonators near 1e5 rad/s, one ohm image
# impedance, small series loss in every inductor branch.  The passband sits
# well below the Krylov expansion point so that the index-1 regularization
# shift alpha * omega^2 stays negligible against the modal damping.
BPF_SERIES_L = (1.0e-5, 1.2e-5, 1.0e-5)
BPF_SERIES_C = (1.0e-5, 0.8e-5, 1.0e-5)
BPF_SHUNT_L = (0.9e-5, 1.1e-5, 0.9e-5, 1.0e-5)
BPF_SHUNT_C = (1.1e-5, 0.9e-5, 1.1e-5, 1.0e-5)
BPF_SOURCE_G = 1.0
BPF_LOAD_G = 1.0
BPF_SERIES_LOSS = (25.0, 25.0, 25.0)
BPF_SHUNT_LOSS = (25.0, 25.0, 25.0, 25.0)

# Relative half-width of each family's uniform parameter distributions.
MSD_VARIATION = 0.10
BPF_VARIATION = 0.20


def _uniform_about(nominal: float, variation: float) -> Distribution:
    return Distribution.uniform(nominal * (1 - variation), nominal * (1 + variation))


# Spring and damper incidence of the chain; None is the fixed wall.
_SPRING_PAIRS = ((None, 0), (0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4))
_DAMPER_PAIRS = ((None, 0), (0, 1), (1, 2), (2, 3), (3, 4))


def _stamp_graph(pairs, which):
    K = np.zeros((5, 5))
    a, b = pairs[which]
    if a is None:
        K[b, b] = 1.0
    else:
        K[a, a] += 1.0
        K[b, b] += 1.0
        K[a, b] -= 1.0
        K[b, a] -= 1.0
    return K


def build_msd() -> AffineParamSystem:
    """Mechanical chain in first-order form E x' = A x + B u, y = C x.

    State x = (positions, velocities).  The input forces the first mass
    through its wall spring, so the input matrix is affine in that spring's
    stiffness; the output is the position of the last mass.  Parameters in
    order: 5 masses, 7 springs, 5 dampers (MSD_MASSES, MSD_SPRINGS,
    MSD_DAMPERS), each uniform on nominal * (1 +- MSD_VARIATION).
    """
    n = 10
    E0 = np.zeros((n, n))
    E0[:5, :5] = np.eye(5)
    A0 = np.zeros((n, n))
    A0[:5, 5:] = np.eye(5)
    B0 = np.zeros((n, 1))
    C0 = np.zeros((1, n))
    C0[0, 4] = 1.0

    E_parts, A_parts, B_parts, C_parts, dists = [], [], [], [], []
    for i, m_val in enumerate(MSD_MASSES):
        Ep = np.zeros((n, n))
        Ep[5 + i, 5 + i] = 1.0
        E_parts.append(Ep)
        A_parts.append(None)
        B_parts.append(None)
        C_parts.append(None)
        dists.append(_uniform_about(m_val, MSD_VARIATION))
    for s, k_val in enumerate(MSD_SPRINGS):
        Ap = np.zeros((n, n))
        Ap[5:, :5] = -_stamp_graph(_SPRING_PAIRS, s)
        E_parts.append(None)
        A_parts.append(Ap)
        if s == 0:
            Bp = np.zeros((n, 1))
            Bp[5, 0] = 1.0
            B_parts.append(Bp)
        else:
            B_parts.append(None)
        C_parts.append(None)
        dists.append(_uniform_about(k_val, MSD_VARIATION))
    for d, d_val in enumerate(MSD_DAMPERS):
        Ap = np.zeros((n, n))
        Ap[5:, 5:] = -_stamp_graph(_DAMPER_PAIRS, d)
        E_parts.append(None)
        A_parts.append(Ap)
        B_parts.append(None)
        C_parts.append(None)
        dists.append(_uniform_about(d_val, MSD_VARIATION))

    return AffineParamSystem(
        E0=E0, A0=A0, B0=B0, C0=C0,
        E_parts=tuple(E_parts), A_parts=tuple(A_parts),
        B_parts=tuple(B_parts), C_parts=tuple(C_parts),
        dists=tuple(dists),
    )


def build_bandpass() -> AffineParamSystem:
    """Band-pass ladder in modified nodal analysis, index-1 descriptor form.

    Topology: voltage source behind a source conductance feeding four
    junction nodes in a row; junctions are linked by three series L-R-C
    branches and each junction carries a shunt tank (capacitor to ground in
    parallel with an inductor-resistor leg).  The output is the voltage at
    the load junction.  Unknowns: 15 node voltages, 7 inductor currents,
    1 source current.  Parameters in order: 7 capacitances, 7 inductances,
    9 conductances (source, load, 7 losses), series before shunt, each
    uniform on nominal * (1 +- BPF_VARIATION) about the BPF_* constants.

    The symmetric form of nodal analysis is used (flux and source branch
    rows negated), so A is symmetric and E is a symmetric indefinite
    diagonal of capacitances and negated inductances.  Row scaling leaves
    the transfer function and the spectrum untouched.
    """
    n = 23
    # node indices
    ns = 0                    # source node
    junction = (1, 2, 3, 4)
    w1 = (5, 7, 9)            # series internal, inductor side
    w2 = (6, 8, 10)           # series internal, capacitor side
    tank = (11, 12, 13, 14)   # shunt internal between inductor and loss
    i_series = (15, 16, 17)
    i_shunt = (18, 19, 20, 21)
    i_src = 22

    E0 = np.zeros((n, n))
    A0 = np.zeros((n, n))
    B0 = np.zeros((n, 1))
    C0 = np.zeros((1, n))
    C0[0, junction[3]] = 1.0

    # constant incidences in the symmetric convention: flux and source branch
    # rows carry a minus sign, making A symmetric and E indefinite block
    # diagonal (capacitance block, minus inductance block)
    for b in range(3):
        p = junction[b]
        A0[p, i_series[b]] = -1.0
        A0[w1[b], i_series[b]] = 1.0
        A0[i_series[b], p] = -1.0
        A0[i_series[b], w1[b]] = 1.0
    for t in range(4):
        j = junction[t]
        A0[j, i_shunt[t]] = -1.0
        A0[tank[t], i_shunt[t]] = 1.0
        A0[i_shunt[t], j] = -1.0
        A0[i_shunt[t], tank[t]] = 1.0
    A0[ns, i_src] = 1.0
    A0[i_src, ns] = 1.0
    B0[i_src, 0] = -1.0

    E_parts, A_parts, dists = [], [], []

    def cap_stamp(p, q):
        Ep = np.zeros((n, n))
        Ep[p, p] += 1.0
        if q is not None:
            Ep[q, q] += 1.0
            Ep[p, q] -= 1.0
            Ep[q, p] -= 1.0
        return Ep

    def cond_stamp(p, q):
        Ap = np.zeros((n, n))
        Ap[p, p] -= 1.0
        if q is not None:
            Ap[q, q] -= 1.0
            Ap[p, q] += 1.0
            Ap[q, p] += 1.0
        return Ap

    # capacitances: 3 series then 4 shunt
    for b, c_val in enumerate(BPF_SERIES_C):
        E_parts.append(cap_stamp(w2[b], junction[b + 1]))
        A_parts.append(None)
        dists.append(_uniform_about(c_val, BPF_VARIATION))
    for t, c_val in enumerate(BPF_SHUNT_C):
        E_parts.append(cap_stamp(junction[t], None))
        A_parts.append(None)
        dists.append(_uniform_about(c_val, BPF_VARIATION))
    # inductances: 3 series then 4 shunt (negated rows, see above)
    for b, l_val in enumerate(BPF_SERIES_L):
        Ep = np.zeros((n, n))
        Ep[i_series[b], i_series[b]] = -1.0
        E_parts.append(Ep)
        A_parts.append(None)
        dists.append(_uniform_about(l_val, BPF_VARIATION))
    for t, l_val in enumerate(BPF_SHUNT_L):
        Ep = np.zeros((n, n))
        Ep[i_shunt[t], i_shunt[t]] = -1.0
        E_parts.append(Ep)
        A_parts.append(None)
        dists.append(_uniform_about(l_val, BPF_VARIATION))
    # conductances: source, load, 3 series losses, 4 shunt losses
    E_parts.append(None)
    A_parts.append(cond_stamp(ns, junction[0]))
    dists.append(_uniform_about(BPF_SOURCE_G, BPF_VARIATION))
    E_parts.append(None)
    A_parts.append(cond_stamp(junction[3], None))
    dists.append(_uniform_about(BPF_LOAD_G, BPF_VARIATION))
    for b, g_val in enumerate(BPF_SERIES_LOSS):
        E_parts.append(None)
        A_parts.append(cond_stamp(w1[b], w2[b]))
        dists.append(_uniform_about(g_val, BPF_VARIATION))
    for t, g_val in enumerate(BPF_SHUNT_LOSS):
        E_parts.append(None)
        A_parts.append(cond_stamp(tank[t], None))
        dists.append(_uniform_about(g_val, BPF_VARIATION))

    none_parts = tuple([None] * len(dists))
    return AffineParamSystem(
        E0=E0, A0=A0, B0=B0, C0=C0,
        E_parts=tuple(E_parts), A_parts=tuple(A_parts),
        B_parts=none_parts, C_parts=none_parts,
        dists=tuple(dists),
    )


# Builder and pipeline defaults of each family; RunConfig fills its unset
# MODEL_FIELDS from here.  The error grid (omega_scale) resolves the
# passband; the technique-i quadrature (stab_scale) uses the expansion-point
# scale, which also covers the broadband part of the Lyapunov integrand of a
# regularized differential-algebraic family.  beta None: not regularized.
MODELS = {
    "msd": dict(build=build_msd, expansion_point=0.7, omega_scale=1.0,
                stab_scale=1.0, beta=None),
    "bpf": dict(build=build_bandpass, expansion_point=1.0e6, omega_scale=1.0e5,
                stab_scale=1.0e6, beta=DEFAULT_BETA),
}
MODEL_FIELDS = ("expansion_point", "omega_scale", "stab_scale", "beta")

# A field annotated int takes any integral number and one annotated float
# any real number; a bool, though an int, only a field annotated bool.
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}


@dataclass
class RunConfig:
    """Configuration of one end-to-end reduction run; None MODEL_FIELDS
    take the model's defaults from MODELS."""

    model: str = "msd"
    degree: int = 1
    technique: str = "none"
    nodes: int = 64
    quad_nodes: int | None = None
    r_max: int = 30
    expansion_point: float | None = None
    beta: float | None = None
    seed: int = 0
    with_errors: bool = True
    error_nodes: int = DEFAULT_NODES
    omega_scale: float | None = None
    stab_scale: float | None = None
    out: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = (typing.get_args(f.type) or (f.type,))[0]  # X of X | None
            if value is None and f.default is None:
                continue
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, _ACCEPTS.get(kind, kind))):
                raise ValueError(f"config key {f.name!r} must be {kind.__name__}, "
                                 f"not {value!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {', '.join(MODELS)}")
        if self.technique not in ("none", "i", "ii", "iii"):
            raise ValueError("technique must be one of none, i, ii, iii")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.r_max < 1:
            raise ValueError("r_max must be positive")
        if self.nodes < 2 or self.error_nodes < 2:
            raise ValueError("node counts must be at least 2")
        if self.quad_nodes is not None and self.quad_nodes < 1:
            raise ValueError("quad_nodes must be positive")
        for name in MODEL_FIELDS:
            if getattr(self, name) is None:
                setattr(self, name, MODELS[self.model][name])
        for name in ("omega_scale", "stab_scale"):  # fail now, not after Arnoldi
            if not getattr(self, name) > 0:
                raise ValueError(f"config key {name!r} must be positive")

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**d)


def project(cfg: RunConfig):
    """The family of cfg.model, regularized when cfg.beta is set, its chaos
    basis of cfg.degree, and the projected system; returns (aps, basis, fom)."""
    aps = MODELS[cfg.model]["build"]()
    if cfg.beta is not None:
        aps = regularize_affine(aps, cfg.beta)
    basis = build_basis(aps.dists, cfg.degree)
    return aps, basis, assemble(aps, basis)


def stabilized_basis(cfg: RunConfig, timings: dict):
    """Projection, Krylov basis and stabilizing technique of one run.

    Returns (projection, arn, outcome): project's (aps, basis, fom), the
    Arnoldi basis of the system that is reduced (the re-assembled one under
    technique ii), and the StabilizationOutcome, None for technique "none".
    Wall times of the assemble, arnoldi and stabilize stages go into timings.
    """
    t0 = time.perf_counter()
    projection = project(cfg)
    aps, basis, fom = projection
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    outcome = None
    if cfg.technique == "ii":
        # m samples for m chaos polynomials can suffice, but over 20 seeds at
        # degree 2 the chaos Gram matrix's lambda_min / lambda_max fell to
        # 1.8e-9 at m samples, 20x from the refusal, and stayed above 2e-2 at 2 m
        n_quad = cfg.quad_nodes or max(100, 2 * basis.m)
        quad = monte_carlo_rule(aps.dists, n_quad, seed=cfg.seed)
        outcome = technique_ii(aps, basis, quad)
    reduced = fom if outcome is None else outcome.transformed
    t1 = time.perf_counter()
    arn = arnoldi(reduced.E, reduced.A, reduced.B, cfg.expansion_point, cfg.r_max)
    t2 = time.perf_counter()
    if cfg.technique == "i":
        rule = FrequencyRule.gauss(cfg.nodes, omega_scale=cfg.stab_scale)
        outcome = technique_i(fom, arn.V, rule=rule)
    elif cfg.technique == "iii":
        outcome = technique_iii(fom, aps, arn.V)
    timings["arnoldi"] = t2 - t1
    timings["stabilize"] = (t1 - t0) + (time.perf_counter() - t2)
    return projection, arn, outcome


def run_experiment(cfg: RunConfig) -> dict:
    """Full pipeline; returns the report dict and optionally writes files.

    The CSV rows (order, stability flag, spectral abscissa, relative H2
    error) are a pure function of the configuration: randomness enters only
    through the seeded parameter sampling of technique ii, so repeated runs
    with one seed serialize identically.  Wall-clock timings go only into
    the JSON report.
    """
    t_start = time.perf_counter()
    timings = {}
    (aps, basis, projected), arn, outcome = stabilized_basis(cfg, timings)

    fom, error_reference = projected, None
    if outcome is not None and outcome.transformed is not None:
        fom, error_reference = outcome.transformed, projected
    W = None if outcome is None else outcome.W
    diag = {} if outcome is None else outcome.diagnostics

    freq_rule = None
    if cfg.with_errors:
        freq_rule = FrequencyRule.gauss(cfg.error_nodes, omega_scale=cfg.omega_scale)
    t0 = time.perf_counter()
    report = stability_sweep(fom, arn.V, W_full=W, freq_rule=freq_rule,
                             error_reference=error_reference)
    timings["sweep"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    result = {
        "config": asdict(cfg),
        "model": cfg.model,
        "dimension": projected.n,
        "blocks": basis.m,
        "state_dim": aps.n,
        "outputs": projected.n_out,
        "expansion_point": cfg.expansion_point,
        "omega_scale": cfg.omega_scale,
        "beta": cfg.beta,
        "technique": cfg.technique,
        "basis_breakdown": arn.breakdown,
        "n_stable": report.n_stable,
        "unstable_orders": report.unstable_orders,
        "failed_orders": report.failed_orders,
        "diagnostics": diag,
        "timings": timings,
        "rows": [
            {"r": row.r, "stable": row.stable, "abscissa": row.abscissa,
             "rel_h2_error": row.rel_h2_error, "note": row.note}
            for row in report.rows
        ],
    }

    if cfg.out is not None:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(out_dir / "sweep.csv")
        with open(out_dir / "report.json", "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    return result
