"""Krylov-subspace model order reduction for descriptor systems.

One-sided Arnoldi builds an orthonormal basis of the moment-matching Krylov
space at an expansion point; Petrov-Galerkin projection with an optional
separate left factor produces the reduced matrices.  A sweep takes one
reduced system of the largest order and classifies the stability of the
pencil of each of its leading blocks, one QZ per order.  Optionally it
attaches relative H2 errors: every order's from one elimination without
pivoting per grid point of a pencil bordered by the output's R factor,
whose leading blocks are the orders.  h2_relative_error evaluates a single
reduced model with transfer_on_grid instead, as does the sweep for an
order whose elimination meets a zero or tiny pivot.  The full-order side
of those errors, the reference's transfer values on the error grid, is an
ErrorReference value: error_reference evaluates it once, and a caller that
sweeps one system many times passes the same value to each sweep.  Nothing
here is remembered between calls.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .frequency import DEFAULT_NODES, FrequencyRule
from .systems import (LTISystem, _as_dense, _weighted_energy, pencil_spectrum,
                      shifted_solver, transfer_on_grid)

BREAKDOWN_RTOL = 1e-13
# Bytes of one chunk of stability_sweep's bordered grid pencils, complex
# (r_max + outputs, r_max + inputs, points) with at most r_max output rows:
# 26 points at r_max 30 and one input.
_SWEEP_CHUNK_BYTES = 3 * 2 ** 18
# A pivot of that elimination at most this fraction of its pencil's largest
# entry may have grown the later orders' entries past trust; the sweep
# evaluates those orders on their own (the shipped reductions' smallest
# ratio is ~1e-3).
_PIVOT_RTOL = 1e-6


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
    if not np.isfinite(s0):
        raise ValueError("expansion point must be finite")
    r_max = min(r_max, n)
    # V's columns again as rows, so that an update reads its column at unit
    # stride; the projection keeps V's strided dot, since OpenBLAS sums a
    # unit-stride dot in another order, and BPF degree 2's basis past order
    # 15 follows that rounding.  Both are made before the factorization:
    # made after it, they raised the process's peak by 5 MB on MSD degree 3.
    V = np.empty((n, r_max))
    Vt = np.empty((r_max, n))
    step = np.empty(n)
    solve = shifted_solver(E, A, s0)
    v = solve(Bd[:, 0])
    ref_norm = np.linalg.norm(v)
    if ref_norm == 0.0:
        raise ValueError("start vector (s0 E - A)^-1 B is zero")
    V[:, 0] = Vt[0] = v / ref_norm
    for j in range(1, r_max):
        w = solve(np.asarray(E @ V[:, j - 1]).ravel())
        for _ in range(2):  # MGS plus one reorthogonalization
            for i in range(j):
                w -= np.multiply(Vt[i], V[:, i] @ w, out=step)
        nrm = np.linalg.norm(w)
        if nrm < BREAKDOWN_RTOL * ref_norm:
            return ArnoldiResult(V=V[:, :j].copy(), breakdown=True)
        V[:, j] = Vt[j] = w / nrm
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
        """Orders whose spectrum or error evaluation raised; the note says why."""
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


@dataclass(frozen=True, eq=False)
class ErrorReference:
    """The full-order side of relative H2 errors on one frequency rule: the
    rule's nonnegative nodes and folded weights, the reference's transfer
    values on them, shape (k, n_out, n_in), and their weighted energy.  The
    arrays are read-only, so one value can serve every sweep against it."""

    omegas: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    energy: float


def error_reference(fom: LTISystem, rule: FrequencyRule) -> ErrorReference:
    """fom's transfer values on rule and their energy, evaluated once.

    A reference with zero response on the grid raises ValueError, since no
    relative error is defined against it.
    """
    omegas, weights = (np.array(a) for a in rule.half())
    values = transfer_on_grid(fom, omegas)
    energy = _weighted_energy(weights, values)
    if energy <= 0.0:
        raise ValueError("reference system has zero response on the error grid")
    for a in (omegas, weights, values):
        a.flags.writeable = False
    return ErrorReference(omegas=omegas, weights=weights, values=values, energy=energy)


def _relative_error_fn(reference: ErrorReference, target: LTISystem):
    """rom -> ||H_ref - H_rom|| / ||H_ref|| on reference's grid for reduced
    models with target's input/output counts, which are checked here."""
    if reference.values.shape[1:] != (target.n_out, target.n_in):
        raise ValueError("full and reduced systems must share input/output counts")
    return lambda rom: float(np.sqrt(_weighted_energy(
        reference.weights, reference.values - transfer_on_grid(rom, reference.omegas))
        / reference.energy))


def h2_relative_error(fom: LTISystem, rom: LTISystem,
                      freq_rule: FrequencyRule | None = None) -> float:
    """Relative H2 error ||H - H_r|| / ||H|| on freq_rule (DEFAULT_NODES Gauss if None)."""
    rule = FrequencyRule.gauss(DEFAULT_NODES) if freq_rule is None else freq_rule
    return _relative_error_fn(error_reference(fom, rule), rom)(rom)


def _leading_block_errors(reference: ErrorReference, rom: LTISystem) -> np.ndarray:
    """sum_j w_j ||H_ref(i omega_j) - H_r(i omega_j)||_F^2 for every leading
    block r = 1..rom.n of rom, from one elimination per grid point.

    With the thin QR C = Q R (R upper trapezoidal, so C[:, :r] = Q R[:, :r]),
    Gaussian elimination without pivoting of the bordered pencil
    [[s E - A, B], [R, 0]] leaves -R[:, :r] (s E_r - A_r)^-1 B_r in its
    corner after pivot r, for every r at once.  Order r's error at s is then
    ||(I - Q Q^T) H_ref||^2 + ||Q^T H_ref + corner||^2, a sum of squares.
    A zero pivot, or one of at most _PIVOT_RTOL times the largest entry of
    s E - A, leaves that order and every later one NaN instead of raising;
    the caller evaluates those orders anew.
    """
    E, A, B, C = (_as_dense(X) for X in (rom.E, rom.A, rom.B, rom.C))
    n, n_in = B.shape
    Q, R = np.linalg.qr(C)
    k = R.shape[0]
    H, weights = reference.values, reference.weights
    QtH = Q.T @ H
    err2 = np.full(n, _weighted_energy(weights, H - Q @ QtH))
    QtH = QtH.transpose(1, 2, 0)
    s = 1j * reference.omegas
    step = max(1, _SWEEP_CHUNK_BYTES // (16 * (n + k) * (n + n_in)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, s.size, step):
            # grid points last, so that each update runs along them
            sc = s[lo:lo + step]
            M = np.zeros((n + k, n + n_in, sc.size), dtype=complex)
            np.multiply(E[:, :, None], sc, out=M[:n, :n])
            M[:n, :n] -= A[:, :, None]
            M[:n, n:] = B[:, :, None]
            M[n:, :n] = R[:, :, None]
            floor = _PIVOT_RTOL * np.abs(M[:n, :n]).max(axis=(0, 1))
            miss = np.empty((n, sc.size))
            for p in range(n):
                # rows of R past p are zero in column p, so elimination has
                # not reached them yet
                hi = n + min(p + 1, k)
                lower = M[p + 1:hi, p] / M[p, p]
                M[p + 1:hi, p + 1:] -= lower[:, None] * M[p, p + 1:]
                miss[p] = np.sum(np.abs(QtH[..., lo:lo + step] + M[n:, n:]) ** 2,
                                 axis=(0, 1))
            # the pivots stay on M's diagonal
            small = np.abs(M[np.arange(n), np.arange(n)]) <= floor
            miss[np.logical_or.accumulate(small, axis=0)] = np.nan
            err2 += miss @ weights[lo:lo + step]
    return err2


def stability_sweep(rom: LTISystem,
                    reference: ErrorReference | None = None) -> StabilityReport:
    """Classify the stability of every order r = 1..rom.n of one reduction.

    rom is the reduced system of the largest order; the model of order r is
    its leading block E[:r, :r], A[:r, :r], B[:r], C[:, :r], which is
    exactly the projection onto the first r columns of its bases.  Each
    order's pencil gets its own QZ.

    With reference given (error_reference of the projected system), each
    order also gets its relative H2 error on the reference's grid.  All
    orders come from one pass over the grid (_leading_block_errors): per
    chunk of points, one elimination without pivoting of the bordered
    pencils of order rom.n, whose leading blocks are the orders.  An order
    the pass leaves NaN, at or past a zero or tiny pivot, is evaluated on
    its own leading block by transfer_on_grid, which names a singular point
    in that row's note; every other order keeps the pass's value.  An input
    or output count that differs from rom's raises ValueError before any
    order is classified.

    A failure at one order (its QZ, or a singular reduced pencil on the
    grid) is recorded in that row's note and the sweep continues.  Failed
    rows are listed in failed_orders, not in unstable_orders.
    """
    if reference is not None:
        error = _relative_error_fn(reference, rom)
        err2 = _leading_block_errors(reference, rom)
    rows = []
    for r in range(1, rom.n + 1):
        try:
            lead = LTISystem(E=rom.E[:r, :r], A=rom.A[:r, :r], B=rom.B[:r],
                             C=rom.C[:, :r])
            spectrum = pencil_spectrum(lead.E, lead.A)
            rel = None
            if reference is not None:
                rel = (float(np.sqrt(err2[r - 1] / reference.energy))
                       if np.isfinite(err2[r - 1]) else error(lead))
            rows.append(SweepRow(r=r, stable=bool(spectrum.abscissa < 0),
                                 abscissa=float(spectrum.abscissa), rel_h2_error=rel))
        except Exception as exc:
            rows.append(SweepRow(r=r, stable=False, abscissa=float("nan"),
                                 rel_h2_error=None, note=str(exc)))
    return StabilityReport(rows=rows)
