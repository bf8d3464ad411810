"""Krylov-subspace model order reduction for descriptor systems.

One-sided Arnoldi builds an orthonormal basis of the moment-matching Krylov
space at an expansion point; Petrov-Galerkin projection with an optional
separate left factor produces the reduced matrices.  A sweep driver reduces
at increasing orders, classifies stability of every reduced pencil, and
optionally attaches relative H2 errors (h2_relative_error's code path),
emitting a CSV-ready report.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .frequency import DEFAULT_NODES, FrequencyRule
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


def reduce(fom: LTISystem, V, W=None) -> LTISystem:
    """Petrov-Galerkin reduction W^T (E, A, B) V with output C V.

    V must be orthonormal with fom.n rows; the left factor W defaults to V
    and must have the shape of V.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] < V.shape[1]:
        raise ValueError("V must be tall (n >= r)")
    gram_err = np.linalg.norm(V.T @ V - np.eye(V.shape[1]))
    if gram_err > 1e-12 * max(1.0, np.sqrt(V.shape[1])):
        raise ValueError(f"V is not orthonormal (||V^T V - I|| = {gram_err:.2e})")
    if W is None:
        W = V
    else:
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if W.shape != V.shape:
            raise ValueError("W must have the same shape as V")
    if V.shape[0] != fom.n:
        raise ValueError("projection basis does not match system dimension")
    WE = W.T @ np.asarray(fom.E @ V)
    WA = W.T @ np.asarray(fom.A @ V)
    WB = W.T @ _as_dense(fom.B)
    CV = np.asarray(fom.C @ V)
    return LTISystem(E=WE, A=WA, B=WB, C=CV)


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
        """Orders whose reduced pencil is not asymptotically stable; a failed
        order (a row with a note) is not among them."""
        return [row.r for row in self.rows if not row.stable and row.note is None]

    @property
    def failed_orders(self):
        """Orders whose reduction or evaluation raised; the note says why."""
        return [row.r for row in self.rows if row.note is not None]

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


def _relative_error_fn(reference: LTISystem, rule: FrequencyRule, target: LTISystem):
    """rom -> ||H_ref - H_rom|| / ||H_ref|| on rule for reduced models with
    target's input/output counts; the reference is evaluated once."""
    if target.n_in != reference.n_in or target.n_out != reference.n_out:
        raise ValueError("full and reduced systems must share input/output counts")
    omegas, weights = rule.half()
    ref_vals = transfer_on_grid(reference, omegas)
    den = _weighted_energy(weights, ref_vals)
    if den <= 0.0:
        raise ValueError("reference system has zero response on the error grid")
    return lambda rom: float(np.sqrt(
        _weighted_energy(weights, ref_vals - transfer_on_grid(rom, omegas)) / den))


def h2_relative_error(fom: LTISystem, rom: LTISystem,
                      freq_rule: FrequencyRule | None = None) -> float:
    """Relative H2 error ||H - H_r|| / ||H|| on freq_rule (DEFAULT_NODES Gauss if None)."""
    rule = FrequencyRule.gauss(DEFAULT_NODES) if freq_rule is None else freq_rule
    return _relative_error_fn(fom, rule, rom)(rom)


def stability_sweep(fom: LTISystem, V_full, W_full=None,
                    freq_rule: FrequencyRule | None = None,
                    error_reference: LTISystem | None = None) -> StabilityReport:
    """Reduce at every order r = 1..V_full.shape[1]; classify stability.

    The system is projected once, onto all columns of V_full and W_full.
    The model of order r is that projection's leading block E[:r, :r],
    A[:r, :r], B[:r], C[:, :r], which is exactly the projection onto the
    first r columns.

    With freq_rule given, relative H2 errors are computed on that shared grid
    against error_reference (the reduction target fom by default; pass the
    untransformed system when fom was re-assembled by a transformation).
    An error_reference whose input or output count differs from fom's raises
    ValueError before any order is reduced; without freq_rule it is unused.
    The reference transfer function is evaluated once; each order's is one
    transfer_on_grid call, which solves all grid points in one stacked call.

    A failure of the full projection fails every row.  A failure at one
    order (its QZ, or a singular reduced pencil on the grid) is recorded in
    that row's note and the sweep continues.  Failed rows are listed in
    failed_orders, not in unstable_orders.
    """
    V_full = np.atleast_2d(np.asarray(V_full, dtype=float))
    if W_full is not None:
        W_full = np.atleast_2d(np.asarray(W_full, dtype=float))
        if W_full.shape != V_full.shape:
            raise ValueError("W must have the same shape as V")
    error = None
    if freq_rule is not None:
        reference = fom if error_reference is None else error_reference
        error = _relative_error_fn(reference, freq_rule, fom)

    def failed(r, exc):
        return SweepRow(r=r, stable=False, abscissa=float("nan"),
                        rel_h2_error=None, note=str(exc))

    orders = range(1, V_full.shape[1] + 1)
    try:
        full = reduce(fom, V_full, W_full)
    except Exception as exc:
        return StabilityReport(rows=[failed(r, exc) for r in orders])

    rows = []
    for r in orders:
        try:
            rom = LTISystem(E=full.E[:r, :r], A=full.A[:r, :r], B=full.B[:r],
                            C=full.C[:, :r])
            spectrum = pencil_spectrum(rom.E, rom.A)
            stable = bool(spectrum.abscissa < 0)
            rows.append(SweepRow(r=r, stable=stable, abscissa=float(spectrum.abscissa),
                                 rel_h2_error=None if error is None else error(rom)))
        except Exception as exc:
            rows.append(failed(r, exc))
    return StabilityReport(rows=rows)
