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

import functools
import json
import numbers
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import stabilize
from .frequency import DEFAULT_NODES, FrequencyRule
from .galerkin import assemble
from .mor import arnoldi, error_reference, reduce, stability_sweep
from .pce import Distribution, build_basis, monte_carlo_rule
from .stabilize import (DEFAULT_BETA, StabilizationOutcome, regularize_affine,
                        technique_i, technique_ii, technique_iii)
from .systems import AffineParamSystem, _blas_serial

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

# Spring and damper incidence of the chain; None is the fixed wall.
_SPRING_PAIRS = ((0, None), (0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4))
_DAMPER_PAIRS = ((0, None), (0, 1), (1, 2), (2, 3), (3, 4))


def _stamp(n, p, q=None, at=(0, 0)):
    """n x n pattern of a two-terminal element between nodes p and q, or
    between p and ground when q is None: +1 at (p, p) and (q, q), -1 at
    (p, q) and (q, p), each entry moved by at = (rows, columns)."""
    K = np.zeros((n, n))
    r, c = at
    K[r + p, c + p] = 1.0
    if q is not None:
        K[r + q, c + q] = 1.0
        K[r + p, c + q] = K[r + q, c + p] = -1.0
    return K


def _element_family(rows, variation, E0, A0, B0, C0) -> AffineParamSystem:
    """The family of constant matrices E0, A0, B0, C0 and one parameter per
    row (nominal, E part, A part, B part), each uniform on
    nominal * (1 +- variation); no parameter enters C."""
    nominals, E_parts, A_parts, B_parts = zip(*rows)
    return AffineParamSystem(
        E0=E0, A0=A0, B0=B0, C0=C0,
        E_parts=E_parts, A_parts=A_parts, B_parts=B_parts,
        C_parts=(None,) * len(rows),
        dists=tuple(Distribution.uniform(v * (1 - variation), v * (1 + variation))
                    for v in nominals),
    )


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
    B_wall = np.zeros((n, 1))
    B_wall[5, 0] = 1.0
    # every element sits in the force rows 5-9: a spring in the position
    # columns 0-4, a mass and a damper in the velocity columns 5-9
    positions, velocities = (5, 0), (5, 5)
    rows = [(m, _stamp(n, i, at=velocities), None, None)
            for i, m in enumerate(MSD_MASSES)]
    rows += [(k, None, -_stamp(n, p, q, at=positions), B_wall if q is None else None)
             for k, (p, q) in zip(MSD_SPRINGS, _SPRING_PAIRS)]
    rows += [(d, None, -_stamp(n, p, q, at=velocities), None)
             for d, (p, q) in zip(MSD_DAMPERS, _DAMPER_PAIRS)]
    return _element_family(rows, MSD_VARIATION, E0, A0, B0, C0)


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
    # diagonal (capacitance block, minus inductance block); an inductor
    # branch, series then shunt, runs from a junction p to a node w
    for p, w, i in zip(junction[:3] + junction, w1 + tank, i_series + i_shunt):
        A0[p, i] = A0[i, p] = -1.0
        A0[w, i] = A0[i, w] = 1.0
    A0[ns, i_src] = A0[i_src, ns] = 1.0
    B0[i_src, 0] = -1.0

    # capacitances stamp E (series: w2 to the next junction; shunt: junction
    # to ground), inductances their negated flux rows, and conductances A
    # with a minus sign (source node to the first junction, load junction to
    # ground, series losses w1 to w2, shunt losses tank to ground)
    rows = [(c, _stamp(n, p, q), None, None) for c, p, q in
            zip(BPF_SERIES_C + BPF_SHUNT_C, w2 + junction, junction[1:] + (None,) * 4)]
    rows += [(ell, -_stamp(n, i), None, None)
             for ell, i in zip(BPF_SERIES_L + BPF_SHUNT_L, i_series + i_shunt)]
    rows += [(g, None, -_stamp(n, p, q), None) for g, p, q in
             zip((BPF_SOURCE_G, BPF_LOAD_G) + BPF_SERIES_LOSS + BPF_SHUNT_LOSS,
                 (ns, junction[3]) + w1 + tank, (junction[0], None) + w2 + (None,) * 4)]
    return _element_family(rows, BPF_VARIATION, E0, A0, B0, C0)


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
TECHNIQUES = ("none", "i", "ii", "iii")

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
        if self.technique not in TECHNIQUES:
            raise ValueError(f"technique must be one of {', '.join(TECHNIQUES)}")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.r_max < 1:
            raise ValueError("r_max must be positive")
        if self.nodes < 2 or self.error_nodes < 2:
            raise ValueError("node counts must be at least 2")
        if self.quad_nodes is not None and self.quad_nodes < 1:
            raise ValueError("quad_nodes must be positive")
        for name in MODEL_FIELDS:  # fail now, not after Arnoldi
            value = getattr(self, name)
            if value is None:
                setattr(self, name, MODELS[self.model][name])
            elif not abs(value) <= sys.float_info.max:  # nan, inf, or past float range
                raise ValueError(f"config key {name!r} must be finite")
        for name in ("omega_scale", "stab_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"config key {name!r} must be positive")

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**d)


def _family(model: str, degree: int, beta: float | None):
    """The family of model, regularized when beta is set, and its chaos
    basis of degree; returns (aps, basis)."""
    aps = MODELS[model]["build"]()
    if beta is not None:
        aps = regularize_affine(aps, beta)
    return aps, build_basis(aps.dists, degree)


def _read_only(*matrices):
    """Mark every array of the dense or sparse matrices read-only; None
    entries are skipped."""
    for X in matrices:
        if X is not None:
            for a in (X.data, X.indices, X.indptr) if sp.issparse(X) else (X,):
                a.flags.writeable = False


# Entries of each per-process cache below; past it the least recently used
# one is evicted.  A _projection entry holds the family, its basis and its
# projected system, mostly the CSR arrays of E, A and C: 0.9 MB at BPF
# degree 2 and 1.2 MB at MSD degree 3.  A _reference entry holds
# 16 k n_out n_in bytes of grid values for k nonnegative grid nodes: 0.27 MB
# at MSD degree 2 and 9.6 MB at MSD degree 4 on the default 100-point half
# grid.  A _margin entry is one float.
_PROJECTION_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_PROJECTION_CACHE_SIZE)
def _projection(model: str, degree: int, beta: float | None):
    """_family's (aps, basis) and assemble's projected system of them,
    built at the first call for (model, degree, beta) in this process and
    then shared.  Every array they hold is read-only, so a caller that
    writes into one gets a ValueError instead of corrupting the entry."""
    aps, basis = _family(model, degree, beta)
    fom = assemble(aps, basis)
    _read_only(aps.E0, aps.A0, aps.B0, aps.C0, *aps.E_parts, *aps.A_parts,
               *aps.B_parts, *aps.C_parts, basis.exponents,
               fom.E, fom.A, fom.B, fom.C)
    return aps, basis, fom


@functools.lru_cache(maxsize=_PROJECTION_CACHE_SIZE)
def _reference(model: str, degree: int, beta: float | None, error_nodes: int,
               omega_scale: float):
    """error_reference of _projection's system on the error grid of
    error_nodes at omega_scale, evaluated at the first call for that
    configuration in this process and then shared; it is read-only."""
    rule = FrequencyRule.gauss(error_nodes, omega_scale=omega_scale)
    return error_reference(_projection(model, degree, beta)[2], rule)


@functools.lru_cache(maxsize=_PROJECTION_CACHE_SIZE)
def _margin(model: str, degree: int, beta: float | None) -> float:
    """Technique iii's margin on _projection's system, computed at the first
    call for (model, degree, beta) in this process and then shared.  It is
    looked up as stabilize._technique_iii_margin, the name that tracing
    wraps."""
    aps, _, fom = _projection(model, degree, beta)
    return stabilize._technique_iii_margin(fom, aps)


def project(cfg: RunConfig):
    """The family of cfg.model, regularized when cfg.beta is set, its chaos
    basis of cfg.degree and the projected system; returns (aps, basis, fom).

    None of them depends on the expansion point or the technique, so they
    are built once per (model, degree, beta) per process and then returned
    from a bounded cache (_projection): every caller gets the same objects,
    whose arrays are read-only.
    """
    return _projection(cfg.model, cfg.degree, cfg.beta)


def stabilized_basis(cfg: RunConfig, timings: dict):
    """Projection, Krylov basis and reduced system of one run.

    Returns (projection, arn, outcome): project's (aps, basis, fom), the
    Arnoldi basis, and the StabilizationOutcome of order arn.rank.  Under
    none and ii, Arnoldi runs on, and reduce projects one-sidedly, fom or
    technique ii's re-assembled system; i and iii reduce fom themselves.
    Technique ii without errors reads nothing of fom, so there it is None
    and is not assembled; its family and basis are built afresh.  Otherwise
    the projection comes from project's per-process cache, so only the
    first run of a (model, degree, beta) assembles; technique iii's margin,
    which does not depend on the basis, comes from the same kind of cache
    (_margin).  Wall times of the assemble, arnoldi and stabilize stages
    (the last one including the reduction) go into timings.
    """
    t0 = time.perf_counter()
    if cfg.technique != "ii" or cfg.with_errors:
        projection = project(cfg)
    else:
        projection = *_family(cfg.model, cfg.degree, cfg.beta), None
    aps, basis, fom = projection
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    system, diagnostics = fom, {}
    if cfg.technique == "ii":
        # m samples for m chaos polynomials can suffice, but over 20 seeds at
        # degree 2 the chaos Gram matrix's lambda_min / lambda_max fell to
        # 1.8e-9 at m samples, 20x from the refusal, and stayed above 2e-2 at 2 m
        n_quad = cfg.quad_nodes or max(100, 2 * basis.m)
        quad = monte_carlo_rule(aps.dists, n_quad, seed=cfg.seed)
        system, diagnostics = technique_ii(aps, basis, quad), {"nodes": quad.k}
    t1 = time.perf_counter()
    arn = arnoldi(system.E, system.A, system.B, cfg.expansion_point, cfg.r_max)
    t2 = time.perf_counter()
    if cfg.technique == "i":
        rule = FrequencyRule.gauss(cfg.nodes, omega_scale=cfg.stab_scale)
        outcome = technique_i(fom, arn.V, rule=rule)
    elif cfg.technique == "iii":
        diagnostics = {"margin": _margin(cfg.model, cfg.degree, cfg.beta),
                       "mu_star": aps.nominal().tolist()}
        outcome = StabilizationOutcome("iii", technique_iii(fom, aps, arn.V), diagnostics)
    else:
        outcome = StabilizationOutcome(cfg.technique, reduce(system, arn.V), diagnostics)
    timings["arnoldi"] = t2 - t1
    timings["stabilize"] = (t1 - t0) + (time.perf_counter() - t2)
    return projection, arn, outcome


def run_experiment(cfg: RunConfig) -> dict:
    """Full pipeline; returns the report dict and optionally writes files.

    The CSV rows (order, stability flag, spectral abscissa, relative H2
    error) sweep stabilized_basis's reduced system against the projected
    one, whatever the technique; the projected system's side of the errors
    is evaluated once per (model, degree, beta, error_nodes, omega_scale)
    per process (_reference).  The rows are a pure function of the
    configuration: randomness enters only through the seeded parameter
    sampling of technique ii, so repeated runs with one seed serialize
    identically.  Wall-clock timings go only into the JSON report.  The
    pipeline runs NumPy's and SciPy's bundled BLAS on one thread, technique
    ii's node-sum solves excepted (systems._blas_serial).
    """
    t_start = time.perf_counter()
    timings = {}
    with _blas_serial():
        (aps, basis, _), arn, outcome = stabilized_basis(cfg, timings)
        t0 = time.perf_counter()
        reference = None
        if cfg.with_errors:
            reference = _reference(cfg.model, cfg.degree, cfg.beta, cfg.error_nodes,
                                   cfg.omega_scale)
        report = stability_sweep(outcome.reduced, reference)
        timings["sweep"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    result = {
        "config": asdict(cfg),
        "model": cfg.model,
        "dimension": basis.m * aps.n,
        "blocks": basis.m,
        "state_dim": aps.n,
        "outputs": basis.m * aps.n_out,
        "expansion_point": cfg.expansion_point,
        "omega_scale": cfg.omega_scale,
        "beta": cfg.beta,
        "technique": cfg.technique,
        "basis_breakdown": arn.breakdown,
        "n_stable": report.n_stable,
        "unstable_orders": report.unstable_orders,
        "failed_orders": report.failed_orders,
        "diagnostics": outcome.diagnostics,
        "timings": timings,
        "rows": [asdict(row) for row in report.rows],
    }

    if cfg.out is not None:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(out_dir / "sweep.csv")
        with open(out_dir / "report.json", "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    return result
