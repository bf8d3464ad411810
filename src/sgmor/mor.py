"""Krylov-subspace model order reduction for descriptor systems.

One-sided Arnoldi builds an orthonormal basis of the moment-matching Krylov
space at an expansion point; Petrov-Galerkin projection with an optional
separate left factor produces the reduced matrices.  A sweep takes one
reduced system of the largest order, classifies the stability of the
pencil of each of its leading blocks, and optionally attaches relative H2
errors (h2_relative_error's code path), emitting a CSV-ready report.  The
full-order side of those errors, the reference's transfer values on the
error grid, is evaluated once per distinct (system, rule) per process and
reused from a small content-keyed cache.
"""

import csv
import hashlib
import io
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .frequency import DEFAULT_NODES, FrequencyRule
from .systems import (LTISystem, NodeKronSum, _as_dense, _weighted_energy,
                      pencil_spectrum, shifted_solver, transfer_on_grid)

BREAKDOWN_RTOL = 1e-13

# Entries of _reference_cache; past it the oldest entry is evicted.  One
# entry holds 16 k n_out n_in bytes for k grid points: 0.27 MB at MSD
# degree 2 and 9.6 MB at MSD degree 4 on the default 100-point half grid.
_REFERENCE_CACHE_SIZE = 4
# digest of (reference system, rule) -> (read-only H_ref on the grid, energy)
_reference_cache = {}
# Serializes insertion and eviction in every _cached cache, for callers on
# several threads.
_cache_lock = threading.Lock()


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


def _digest(system: LTISystem, *arrays) -> bytes:
    """Digest of system and arrays: the container type, format, shape and
    dtype of E, A, B and C with every one of their arrays, then the dtype,
    shape and values of each further array (a rule's nodes and weights for
    _reference_on_grid)."""
    h = hashlib.blake2b(digest_size=32)

    def feed(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a)

    for X in (system.E, system.A, system.B, system.C):
        h.update(f"{type(X).__qualname__} {getattr(X, 'format', '')} "
                 f"{X.shape} {X.dtype};".encode())
        if sp.issparse(X):
            X = X if hasattr(X, "indptr") else X.tocsr()
            feed(X.indptr, X.indices, X.data)
        elif isinstance(X, NodeKronSum):
            feed(X.S, X.w, X.X)
        else:
            feed(X)
    feed(*arrays)
    return h.digest()


def _cached(cache: dict, size: int, key, compute):
    """cache[key], set to compute() on a miss; past size entries the oldest
    is evicted.  A compute() that raises stores nothing."""
    entry = cache.get(key)
    if entry is None:
        entry = compute()
        with _cache_lock:
            cache[key] = entry
            if len(cache) > size:
                del cache[next(iter(cache))]
    return entry


def _reference_on_grid(reference: LTISystem, omegas, weights):
    """(H_ref on omegas, its weighted energy with weights), computed at the
    first call for a (system, rule) in this process and then returned from
    _reference_cache; the values are read-only, since every caller shares
    them.  A reference whose evaluation raises leaves nothing behind."""

    def evaluate():
        ref_vals = transfer_on_grid(reference, omegas)
        ref_vals.flags.writeable = False
        return ref_vals, _weighted_energy(weights, ref_vals)

    return _cached(_reference_cache, _REFERENCE_CACHE_SIZE,
                   _digest(reference, omegas, weights), evaluate)


def _relative_error_fn(reference: LTISystem, rule: FrequencyRule, target: LTISystem):
    """rom -> ||H_ref - H_rom|| / ||H_ref|| on rule for reduced models with
    target's input/output counts.  The reference is evaluated once per
    distinct (system, rule) per process (_reference_on_grid); the count
    check and the zero-response refusal run on every call."""
    if target.n_in != reference.n_in or target.n_out != reference.n_out:
        raise ValueError("full and reduced systems must share input/output counts")
    omegas, weights = rule.half()
    ref_vals, den = _reference_on_grid(reference, omegas, weights)
    if den <= 0.0:
        raise ValueError("reference system has zero response on the error grid")
    return lambda rom: float(np.sqrt(
        _weighted_energy(weights, ref_vals - transfer_on_grid(rom, omegas)) / den))


def h2_relative_error(fom: LTISystem, rom: LTISystem,
                      freq_rule: FrequencyRule | None = None) -> float:
    """Relative H2 error ||H - H_r|| / ||H|| on freq_rule (DEFAULT_NODES Gauss if None)."""
    rule = FrequencyRule.gauss(DEFAULT_NODES) if freq_rule is None else freq_rule
    return _relative_error_fn(fom, rule, rom)(rom)


def stability_sweep(fom: LTISystem, rom: LTISystem,
                    freq_rule: FrequencyRule | None = None) -> StabilityReport:
    """Classify the stability of every order r = 1..rom.n of one reduction.

    rom is the reduced system of the largest order; the model of order r is
    its leading block E[:r, :r], A[:r, :r], B[:r], C[:, :r], which is
    exactly the projection onto the first r columns of its bases.

    With freq_rule given, relative H2 errors are computed on that shared
    grid against fom, the projected system (it is read only then); an
    input or output count that differs from rom's raises ValueError before
    any order is classified.  The reference transfer function is evaluated
    once per distinct (system, rule) per process, so a later sweep against
    the same projected system and rule reuses it; each order's is one
    transfer_on_grid call, which solves all grid points in one stacked call.

    A failure at one order (its QZ, or a singular reduced pencil on the
    grid) is recorded in that row's note and the sweep continues.  Failed
    rows are listed in failed_orders, not in unstable_orders.
    """
    error = None if freq_rule is None else _relative_error_fn(fom, freq_rule, rom)
    rows = []
    for r in range(1, rom.n + 1):
        try:
            lead = LTISystem(E=rom.E[:r, :r], A=rom.A[:r, :r], B=rom.B[:r],
                             C=rom.C[:, :r])
            spectrum = pencil_spectrum(lead.E, lead.A)
            stable = bool(spectrum.abscissa < 0)
            rows.append(SweepRow(r=r, stable=stable, abscissa=float(spectrum.abscissa),
                                 rel_h2_error=None if error is None else error(lead)))
        except Exception as exc:
            rows.append(SweepRow(r=r, stable=False, abscissa=float("nan"),
                                 rel_h2_error=None, note=str(exc)))
    return StabilityReport(rows=rows)
