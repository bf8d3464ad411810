"""Krylov-subspace model order reduction for descriptor systems.

One-sided Arnoldi builds an orthonormal basis of the moment-matching Krylov
space at an expansion point; Petrov-Galerkin projection with an optional
separate left factor produces the reduced matrices.  A sweep driver reduces
at increasing orders, classifies stability of every reduced pencil, and
optionally attaches relative H2 errors, emitting a CSV-ready report.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .frequency import FrequencyRule
from .systems import (LTISystem, _as_dense, _weighted_energy, pencil_spectrum,
                      shifted_solver, transfer_on_grid)

BREAKDOWN_RTOL = 1e-13


@dataclass(eq=False)
class ArnoldiResult:
    """Orthonormal Krylov basis with breakdown bookkeeping."""

    V: np.ndarray
    breakdown: bool

    @property
    def rank(self) -> int:
        return self.V.shape[1]


def arnoldi(E, A, B, s0: float, r_max: int) -> ArnoldiResult:
    """Orthonormal basis of the Krylov space of (s0 E - A)^-1 E started at
    (s0 E - A)^-1 B, for single-input B.

    Modified Gram-Schmidt with one reorthogonalization pass; a candidate
    direction with norm below BREAKDOWN_RTOL times the first column's
    unnormalized norm stops the iteration and the basis built so far is
    returned with the breakdown flag set.
    """
    n = E.shape[0]
    Bd = _as_dense(B).reshape(n, -1)
    if Bd.shape[1] != 1:
        raise ValueError("expansion requires a single-input system")
    if r_max < 1:
        raise ValueError("r_max must be positive")
    r_max = min(r_max, n)
    solve = shifted_solver(E, A, s0)
    v = solve(Bd[:, 0])
    ref_norm = np.linalg.norm(v)
    if ref_norm == 0.0:
        raise ValueError("start vector (s0 E - A)^-1 B is zero")
    V = np.empty((n, r_max))
    V[:, 0] = v / ref_norm
    for j in range(1, r_max):
        w = solve(np.asarray(E @ V[:, j - 1]).ravel())
        for _ in range(2):  # MGS plus one reorthogonalization
            for i in range(j):
                w -= (V[:, i] @ w) * V[:, i]
        nrm = np.linalg.norm(w)
        if nrm < BREAKDOWN_RTOL * ref_norm:
            return ArnoldiResult(V=V[:, :j].copy(), breakdown=True)
        V[:, j] = w / nrm
    return ArnoldiResult(V=V, breakdown=False)


@dataclass(eq=False)
class ProjectionPair:
    """Right basis V (orthonormal) and left factor W (defaults to V)."""

    V: np.ndarray
    W: np.ndarray | None = None

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if V.shape[0] < V.shape[1]:
            raise ValueError("V must be tall (n >= r)")
        gram_err = np.linalg.norm(V.T @ V - np.eye(V.shape[1]))
        if gram_err > 1e-12 * max(1.0, np.sqrt(V.shape[1])):
            raise ValueError(f"V is not orthonormal (||V^T V - I|| = {gram_err:.2e})")
        self.V = V
        if self.W is not None:
            W = np.atleast_2d(np.asarray(self.W, dtype=float))
            if W.shape != V.shape:
                raise ValueError("W must have the same shape as V")
            self.W = W

    @property
    def r(self) -> int:
        return self.V.shape[1]

    def left(self) -> np.ndarray:
        return self.V if self.W is None else self.W


@dataclass(eq=False)
class ReducedSystem:
    """Dense reduced-order model."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def r(self) -> int:
        return self.E.shape[0]

    def as_lti(self) -> LTISystem:
        return LTISystem(E=self.E, A=self.A, B=self.B, C=self.C)


def reduce(fom: LTISystem, pair: ProjectionPair) -> ReducedSystem:
    """Petrov-Galerkin reduction W^T (E, A, B) V with output C V."""
    V = pair.V
    W = pair.left()
    if V.shape[0] != fom.n:
        raise ValueError("projection basis does not match system dimension")
    WE = W.T @ np.asarray(fom.E @ V)
    WA = W.T @ np.asarray(fom.A @ V)
    WB = W.T @ _as_dense(fom.B)
    CV = np.asarray(fom.C @ V)
    return ReducedSystem(E=WE, A=WA, B=WB, C=CV)


@dataclass(frozen=True)
class SweepRow:
    r: int
    stable: bool
    abscissa: float
    rel_h2_error: float | None = None
    note: str | None = None


@dataclass(eq=False)
class StabilityReport:
    """Per-order stability and error table for one reduction sweep."""

    rows: list

    @property
    def n_stable(self) -> int:
        return sum(1 for row in self.rows if row.stable)

    @property
    def unstable_orders(self):
        return [row.r for row in self.rows if not row.stable]

    def to_csv(self, path=None):
        """Serialize as CSV with header r,stable,abscissa,rel_h2_error.

        Floats are written with repr-style shortest round-trip formatting,
        so identical reports serialize byte-identically.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r", "stable", "abscissa", "rel_h2_error"])
        for row in self.rows:
            err = "" if row.rel_h2_error is None else repr(float(row.rel_h2_error))
            absc = repr(float(row.abscissa)) if np.isfinite(row.abscissa) else "nan"
            writer.writerow([row.r, str(bool(row.stable)).lower(), absc, err])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text


def stability_sweep(fom: LTISystem, V_full, r_list, W_full=None,
                    freq_rule: FrequencyRule | None = None,
                    error_reference: LTISystem | None = None) -> StabilityReport:
    """Reduce at every order in r_list and classify stability.

    r_list must be strictly increasing and bounded by the Krylov basis width.
    With freq_rule given, relative H2 errors are computed on that shared grid
    against error_reference (the reduction target fom by default; pass the
    untransformed system when fom was re-assembled by a transformation).
    The reference transfer function is evaluated once.  Failures at one
    order are recorded in that row's note and the sweep continues.
    """
    V_full = np.atleast_2d(np.asarray(V_full, dtype=float))
    r_list = list(r_list)
    if any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("r_list must be strictly increasing")
    if not r_list or r_list[0] < 1 or r_list[-1] > V_full.shape[1]:
        raise ValueError("orders must lie in 1..V.shape[1]")
    if W_full is not None:
        W_full = np.atleast_2d(np.asarray(W_full, dtype=float))
        if W_full.shape != V_full.shape:
            raise ValueError("W must have the same shape as V")

    fom_vals = None
    weights = None
    den = None
    if freq_rule is not None:
        reference = fom if error_reference is None else error_reference
        omegas, gw, jac = freq_rule.half()
        weights = gw * jac
        fom_vals = transfer_on_grid(reference, omegas)
        den = _weighted_energy(weights, fom_vals)
        if den <= 0.0:
            raise ValueError("reference system has zero response on the error grid")

    rows = []
    for r in r_list:
        Vr = V_full[:, :r]
        Wr = None if W_full is None else W_full[:, :r]
        try:
            red = reduce(fom, ProjectionPair(V=Vr, W=Wr))
            spectrum = pencil_spectrum(red.E, red.A)
            stable = bool(spectrum.abscissa < 0)
            err = None
            if freq_rule is not None:
                rom_vals = transfer_on_grid(red.as_lti(), omegas)
                err = float(np.sqrt(_weighted_energy(weights, fom_vals - rom_vals) / den))
            rows.append(SweepRow(r=r, stable=stable, abscissa=float(spectrum.abscissa),
                                 rel_h2_error=err))
        except Exception as exc:
            rows.append(SweepRow(r=r, stable=False, abscissa=float("nan"),
                                 rel_h2_error=None, note=str(exc)))
    return StabilityReport(rows=rows)
