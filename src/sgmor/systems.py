"""Linear time-invariant descriptor systems and parameter-affine families.

Covers the deterministic side of the pipeline: generalized eigenvalues of the
pencil (E, A), asymptotic stability, the dissipativity test (E symmetric
positive definite together with A + A^T negative definite), the shifted
solve (s E - A)^-1 b that every other module factors through,
transfer-function evaluation, and the adaptive H2 norm by quadrature on the
imaginary axis (relative H2 errors are in mor, beside the sweep).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .frequency import CONVERGENCE_RTOL, DEFAULT_NODES, MAX_NODES, FrequencyRule
from .pce import Distribution

# Pencil eigenvalues with |beta| below this multiple of max(||E||, ||A||)
# are classified as infinite.
INFINITE_EIG_RTOL = 1e-12

# Definiteness margin relative to the matrix norm, for the dissipativity test
# and for the chaos Gram matrix of a quadrature rule (galerkin).
DEFINITENESS_RTOL = 1e-10

# SuperLU options for a complex shifted pencil i w E - A.  The chaos pencil
# sum_k G_k (x) E_k is nearly structurally symmetric, for which SuperLU's guide
# (X. S. Li, ACM TOMS 31, 2005) recommends a minimum-degree ordering on
# K^T + K with diagonal pivoting: fill per LU drops 3-4x on MSD degree 2 and
# 8-9x on MSD degree 3.  The threshold still leaves a zero or tiny diagonal,
# such as a source-current row, for an off-diagonal pivot.
_COMPLEX_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                     options=dict(SymmetricMode=True))

# Bytes of stacked dense pencils (and their right-hand sides) that one
# np.linalg.solve call in transfer_on_grid holds.
_CHUNK_BYTES = 8 * 2 ** 20


def _as_dense(X) -> np.ndarray:
    """X as a dense float array; dense input is not copied."""
    return np.asarray(X.toarray() if sp.issparse(X) else X, dtype=float)


@dataclass(eq=False)
class LTISystem:
    """Descriptor system E x' = A x + B u, y = C x.

    The one container of the pipeline: a realization at a parameter point,
    the projected chaos system and every reduced model are all of this
    type.  E and A are square n x n (dense or sparse), B is n x n_in, C is
    n_out x n.  E may be singular; the pencil (E, A) must be regular for
    any of the spectral routines to succeed.
    """

    E: object
    A: object
    B: object
    C: object

    def __post_init__(self):
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ValueError("E and A must be square and equally sized")
        B = self.B
        if not sp.issparse(B):
            B = np.atleast_2d(np.asarray(B, dtype=float))
            if B.shape[0] == 1 and n != 1:
                B = B.T
            self.B = B
        C = self.C
        if not sp.issparse(C):
            C = np.atleast_2d(np.asarray(C, dtype=float))
            self.C = C
        if self.B.shape[0] != n:
            raise ValueError("B must have n rows")
        if self.C.shape[1] != n:
            raise ValueError("C must have n columns")

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @property
    def n_out(self) -> int:
        return self.C.shape[0]


@dataclass(eq=False)
class AffineParamSystem:
    """Family of descriptor systems depending affinely on parameters.

    Each matrix is a constant part plus sum_l mu_l * part_l.  Coefficient
    entries may be None when a parameter does not touch that matrix.
    """

    E0: object
    A0: object
    B0: object
    C0: object
    E_parts: tuple
    A_parts: tuple
    B_parts: tuple
    C_parts: tuple
    dists: tuple

    def __post_init__(self):
        q = len(self.dists)
        for d in self.dists:
            if not isinstance(d, Distribution):
                raise TypeError("dists must contain Distribution instances")
        for name in ("E_parts", "A_parts", "B_parts", "C_parts"):
            parts = tuple(getattr(self, name))
            if len(parts) != q:
                raise ValueError(f"{name} must have one entry per parameter")
            setattr(self, name, parts)
        n = self.E0.shape[0]
        for M in (self.E0, self.A0):
            if M.shape != (n, n):
                raise ValueError("constant parts E0, A0 must be square")
        for name, base in (("E_parts", self.E0), ("A_parts", self.A0),
                           ("B_parts", self.B0), ("C_parts", self.C0)):
            for l, part in enumerate(getattr(self, name)):
                if part is not None and part.shape != base.shape:
                    raise ValueError(
                        f"{name}[{l}] shape {part.shape} does not match {base.shape}")

    @property
    def q(self) -> int:
        return len(self.dists)

    @property
    def n(self) -> int:
        return self.E0.shape[0]

    @property
    def n_in(self) -> int:
        return self.B0.shape[1]

    @property
    def n_out(self) -> int:
        return self.C0.shape[0]

    def nominal(self) -> np.ndarray:
        return np.array([d.mean for d in self.dists])


def _affine_sum(const, parts, mu):
    total = const.copy()
    for l, part in enumerate(parts):
        if part is not None:
            total = total + mu[l] * part
    return total


def eval_at(aps: AffineParamSystem, mu) -> LTISystem:
    """Instantiate the family at one parameter point."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (aps.q,):
        raise ValueError(f"expected parameter vector of length {aps.q}")
    return LTISystem(
        E=_affine_sum(aps.E0, aps.E_parts, mu),
        A=_affine_sum(aps.A0, aps.A_parts, mu),
        B=_affine_sum(aps.B0, aps.B_parts, mu),
        C=_affine_sum(aps.C0, aps.C_parts, mu),
    )


@dataclass(frozen=True, eq=False)
class PencilSpectrum:
    """Finite eigenvalues of a regular pencil plus infinite-mode bookkeeping."""

    finite: np.ndarray
    abscissa: float
    n_infinite: int


def pencil_spectrum(E, A) -> PencilSpectrum:
    """Generalized eigenvalues of (E, A) via the QZ decomposition.

    Eigenvalue pairs (alpha, beta) with |beta| below
    INFINITE_EIG_RTOL * max(||E||, ||A||) count as infinite.  A pair with both
    components below that threshold signals a singular pencil and raises.
    """
    Ed = _as_dense(E)
    Ad = _as_dense(A)
    n = Ed.shape[0]
    if Ed.shape != (n, n) or Ad.shape != (n, n):
        raise ValueError("E and A must be square and equally sized")
    alpha, beta = sla.eig(Ad, Ed, right=False, homogeneous_eigvals=True)
    scale = max(np.linalg.norm(Ed), np.linalg.norm(Ad), 1e-300)
    tol = INFINITE_EIG_RTOL * scale
    tiny_beta = np.abs(beta) < tol
    tiny_alpha = np.abs(alpha) < tol
    if np.any(tiny_beta & tiny_alpha):
        raise ValueError("singular pencil: eigenvalue with alpha and beta both near zero")
    finite = alpha[~tiny_beta] / beta[~tiny_beta]
    n_infinite = int(np.count_nonzero(tiny_beta))
    if finite.size == 0:
        raise ValueError("pencil has no finite eigenvalues")
    return PencilSpectrum(
        finite=finite,
        abscissa=float(np.max(finite.real)),
        n_infinite=n_infinite,
    )


def is_asymptotically_stable(E, A, margin: float = 0.0) -> bool:
    """True when every finite eigenvalue satisfies Re(lambda) < -margin."""
    return pencil_spectrum(E, A).abscissa < -margin


@dataclass(frozen=True)
class DissipativityCheck:
    ok: bool
    reason: str | None = None
    lambda_min_E: float = np.nan
    lambda_max_symA: float = np.nan

    def __bool__(self):
        return self.ok


def is_dissipative(E, A) -> DissipativityCheck:
    """Test whether E is symmetric positive definite and A + A^T negative definite.

    Definiteness is decided with a margin of DEFINITENESS_RTOL times the
    spectral norm of the tested matrix, so numerically semidefinite cases
    fail the check.
    """
    Ed = _as_dense(E)
    Ad = _as_dense(A)
    sym_err = np.linalg.norm(Ed - Ed.T)
    if sym_err > 1e-10 * max(np.linalg.norm(Ed), 1e-300):
        return DissipativityCheck(ok=False, reason="E is not symmetric")
    lam_E = sla.eigvalsh(0.5 * (Ed + Ed.T))
    scale_E = max(np.abs(lam_E).max(), 1e-300)
    if lam_E[0] <= DEFINITENESS_RTOL * scale_E:
        return DissipativityCheck(
            ok=False, reason="E is not positive definite",
            lambda_min_E=float(lam_E[0]))
    S = Ad + Ad.T
    lam_S = sla.eigvalsh(S)
    scale_S = max(np.abs(lam_S).max(), 1e-300)
    if lam_S[-1] >= -DEFINITENESS_RTOL * scale_S:
        return DissipativityCheck(
            ok=False, reason="A + A^T is not negative definite",
            lambda_min_E=float(lam_E[0]), lambda_max_symA=float(lam_S[-1]))
    return DissipativityCheck(
        ok=True, lambda_min_E=float(lam_E[0]), lambda_max_symA=float(lam_S[-1]))


def _pencil(E, A):
    """Complex E and A, both CSC when either is sparse, else both dense.

    shifted_solver then forms and factors s E - A at a complex shift with no
    per-shift conversion.
    """
    if sp.issparse(E) or sp.issparse(A):
        return sp.csc_matrix(E, dtype=complex), sp.csc_matrix(A, dtype=complex)
    return np.asarray(E, dtype=complex), np.asarray(A, dtype=complex)


def shifted_solver(E, A, s):
    """Factor K = s E - A once; returns solve(rhs, adjoint=False).

    solve applies K^-1, or K^-H with adjoint set.  K is real for real E, A
    and s, and complex for a complex shift.  A dense K is factored by LAPACK
    getrf.  A sparse complex K, as at the imaginary-axis quadrature nodes, is
    factored by SuperLU with _COMPLEX_SPLU: minimum-degree ordering on
    K^T + K, SymmetricMode and diagonal pivot threshold 1e-3.  A sparse real
    K (Arnoldi's expansion point) keeps SuperLU's default COLAMD ordering
    and partial pivoting, since the rounding that dominates high-order
    Krylov bases depends on the ordering.  A singular K or a non-finite
    solution raises ValueError naming s.  Callers that factor at many
    imaginary shifts pass E and A through _pencil once.
    """
    singular = f"(sE - A) is singular at s = {s}"
    K = s * E - A
    sparse = sp.issparse(K)
    if sparse:
        # Arnoldi's basis past order 15 on BPF-2 is dominated by rounding:
        # the complex-shift ordering there moves those orders' H2 errors by
        # up to 9.3%, so real shifts keep the default ordering.
        options = _COMPLEX_SPLU if np.iscomplexobj(K) else {}
        try:
            lu = spla.splu(K.tocsc(), **options)
        except RuntimeError as exc:  # SuperLU: factor is exactly singular
            raise ValueError(singular) from exc
    else:
        K = np.asarray(K)
        getrf = sla.get_lapack_funcs("getrf", (K,))
        lu, piv, info = getrf(K, overwrite_a=True)
        if info != 0:
            raise ValueError(singular)

    def solve(rhs, adjoint=False):
        if sparse:
            x = lu.solve(rhs, trans="H" if adjoint else "N")
        else:
            x = sla.lu_solve((lu, piv), rhs, trans=2 if adjoint else 0,
                             check_finite=False)
        if not np.all(np.isfinite(x)):
            raise ValueError(singular)
        return x

    return solve


def transfer_eval(sys: LTISystem, s: complex) -> np.ndarray:
    """Transfer function H(s) = C (s E - A)^[-1] B at one point."""
    return _as_dense(sys.C) @ shifted_solver(sys.E, sys.A, s)(_as_dense(sys.B))


def transfer_on_grid(sys: LTISystem, omegas) -> np.ndarray:
    """H(i omega) stacked over a frequency grid, shape (k, n_out, n_in).

    A sparse C stays sparse (complex CSR).  A sparse pencil is factored once
    per grid point through shifted_solver.  A dense pencil forms
    i omega E - A for a chunk of points at once, as many as fit in
    _CHUNK_BYTES (one point when a single pencil is larger), and solves the
    chunk with one stacked np.linalg.solve.  A singular pencil or a
    non-finite solution at any point raises ValueError naming that s.
    """
    s = 1j * np.asarray(omegas, dtype=float)
    B = _as_dense(sys.B)
    n, n_in = B.shape
    out = np.empty((s.size, sys.n_out, n_in), dtype=complex)
    if sp.issparse(sys.E) or sp.issparse(sys.A):
        E, A = _pencil(sys.E, sys.A)
        C = sp.csr_matrix(sys.C, dtype=complex) if sp.issparse(sys.C) else sys.C
        B = B.astype(complex)
        for j, sj in enumerate(s):
            out[j] = C @ shifted_solver(E, A, sj)(B)
        return out
    E, A, C = np.asarray(sys.E), np.asarray(sys.A), _as_dense(sys.C)
    step = max(1, _CHUNK_BYTES // (16 * n * (n + n_in)))
    for lo in range(0, s.size, step):
        sc = s[lo:lo + step]
        K = sc[:, None, None] * E
        K -= A
        try:
            # B stacked to (k, n, n_in): numpy 1 and 2 read a right-hand side
            # of one dimension less than K differently
            X = np.linalg.solve(K, np.broadcast_to(B, (sc.size, n, n_in)))
        except np.linalg.LinAlgError:
            for sj in sc:  # shifted_solver names the singular point
                shifted_solver(E, A, sj)
            raise
        finite = np.isfinite(X).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"(sE - A) is singular at s = {sc[np.argmin(finite)]}")
        out[lo:lo + step] = C @ X
    return out


def _weighted_energy(weights, vals) -> float:
    """sum_j weights_j ||vals_j||_F^2 over transfer values stacked on a grid."""
    return float(np.sum(weights * np.sum(np.abs(vals) ** 2, axis=(1, 2))))


class H2DivergenceError(RuntimeError):
    """Raised when the frequency-domain integrand grows toward the axis ends."""


def _check_divergence(integrand: np.ndarray):
    # integrand is the theta-integrand of the tangent substitution up to a
    # constant factor.  For a strictly proper transfer function it levels
    # off near theta = pi/2; polynomial growth in omega makes it blow up
    # across the outermost nodes instead.
    if integrand.size < 4:
        return
    g = integrand[-3:]
    if g[2] > 4.0 * g[1] > 16.0 * g[0] and g[2] > np.mean(integrand):
        raise H2DivergenceError(
            "frequency-domain integrand grows at the largest nodes; "
            "the H2 norm appears to be infinite (improper or polynomial part)")


def h2_norm(sys: LTISystem, omega_scale: float = 1.0) -> float:
    """H2 norm sqrt((1/2pi) int ||H(i omega)||_F^2 d omega).

    The Gauss rule at omega_scale starts at DEFAULT_NODES nodes and doubles
    until the relative change drops below CONVERGENCE_RTOL, or warns when
    MAX_NODES is reached.  Diverging integrands (transfer functions that do
    not vanish at infinity) raise H2DivergenceError.
    """
    n_nodes = DEFAULT_NODES
    prev = None
    while True:
        omegas, weights = FrequencyRule.gauss(n_nodes, omega_scale=omega_scale).half()
        H = transfer_on_grid(sys, omegas)
        _check_divergence(np.sum(np.abs(H) ** 2, axis=(1, 2))
                          * (1.0 + (omegas / omega_scale) ** 2))
        val = float(np.sqrt(_weighted_energy(weights, H) / (2.0 * np.pi)))
        if prev is not None and abs(val - prev) <= CONVERGENCE_RTOL * max(abs(val), 1e-300):
            return val
        if n_nodes >= MAX_NODES:
            warnings.warn(
                f"H2 quadrature did not converge within {MAX_NODES} nodes",
                RuntimeWarning)
            return val
        prev = val
        n_nodes *= 2
