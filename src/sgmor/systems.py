"""Linear time-invariant descriptor systems and parameter-affine families.

Covers the deterministic side of the pipeline: generalized eigenvalues of the
pencil (E, A) and their abscissa, the dissipativity test (E symmetric
positive definite together with A + A^T negative definite), the shifted
solve (s E - A)^-1 b that every other module factors through,
transfer-function evaluation, and the adaptive H2 norm by quadrature on the
imaginary axis (relative H2 errors are in mor, beside the sweep).  A sparse
pencil whose position rows read s q - v exactly, as every chaos block of
the mechanical family's does, is solved in second-order form at half the
dimension; the split is read off E and A, not declared.  Besides dense and
sparse matrices, E and A may be a NodeKronSum, the node-sum operator that
quadrature re-assembly returns; the shifted solve runs preconditioned GMRES
on it.
"""

import contextlib
import ctypes
import functools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
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

# SuperLU options for a shifted pencil s E - A: every complex shift, and a
# real one whose diagonal has no zero (_SparsePencil).
# - permc_spec: the chaos pencil sum_k G_k (x) E_k is nearly structurally
#   symmetric, for which SuperLU's guide (X. S. Li, ACM TOMS 31, 2005)
#   recommends a minimum-degree ordering on K^T + K.  Fill per LU drops 3-4x
#   on MSD degree 2 and 8-9x on MSD degree 3 against the default COLAMD.
#   _SparsePencil computes it at its first complex shift only.
# - diag_pivot_thresh and SymmetricMode: pivot on the diagonal of the
#   symmetrically permuted K, so that the ordering's fill estimate holds.  The
#   threshold still leaves a zero or tiny diagonal, such as a source-current
#   row, for an off-diagonal pivot.
# - panel_size and relax: one-column panels and no relaxed supernodes.  The
#   factors hold 5-30 entries per column, too few for wide panels and
#   relaxed supernodes to pay in BLAS speed, while SuperLU's panel work
#   arrays grow with n times the panel size.  Factoring a permuted shift
#   took 1.5 instead of 2.8 ms on MSD degree 2, 3.3 instead of 7.6 ms on
#   BPF degree 2 and 69 instead of 82 ms on MSD degree 3.
_SYMMETRIC_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                       panel_size=1, relax=1, options=dict(SymmetricMode=True))
# The same for a pencil already permuted by its saved ordering.
_REORDERED_SPLU = dict(_SYMMETRIC_SPLU, permc_spec="NATURAL")

# Relative residual target and iteration cap of the GMRES that solves a
# NodeKronSum pencil.  The node-wise preconditioner takes 6-8 iterations to
# 1e-12 at Arnoldi's real shift on MSD degrees 2 and 3, 9-10 on BPF degree 2,
# and 5-47 (median 11) on MSD degree 2's 100 imaginary-axis points.
_GMRES_RTOL = 1e-12
_GMRES_MAXITER = 60

# Bytes of stacked temporaries one step holds: the dense pencils (and their
# right-hand sides) of one np.linalg.solve call in transfer_on_grid, and the
# per-node blocks of one chunk of nodes in a NodeKronSum product.
_CHUNK_BYTES = 8 * 2 ** 20


def _as_dense(X) -> np.ndarray:
    """X as a dense float array; dense input is not copied."""
    if sp.issparse(X) or isinstance(X, NodeKronSum):
        X = X.toarray()
    return np.asarray(X, dtype=float)


def _as_columns(X, n: int, name: str) -> np.ndarray:
    """X as a float block of n rows; a vector or a 1 x n row becomes a column."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and n != 1:
        X = X.T
    if X.shape[0] != n:
        raise ValueError(f"{name} must have {n} rows")
    return X


def _real_matmul(M, V):
    """M @ V for a real M without casting M to V's complex type.

    A complex V is viewed as a real array with its real and imaginary parts
    side by side in the last axis, so the product is one real GEMM.
    """
    if np.iscomplexobj(M) or not np.iscomplexobj(V):
        return M @ V
    V = np.ascontiguousarray(V)
    return (M @ V.view(V.real.dtype)).view(V.dtype)


class NodeKronSum:
    """The operator sum_k w_k (s_k s_k^T) (x) X_k over the nodes of a rule.

    S (k x m) holds the chaos basis values s_k at the k nodes, w (k) the
    positive weights and X (k x n x n) the node matrices; the operator is
    (m n) x (m n), ordered block-wise by basis polynomial like every
    projected system.  It is never formed: a product with an (m n) x r
    block is, per chunk of nodes whose n x r blocks fit in _CHUNK_BYTES,
    one GEMM with S, batched n x n products, the weights and one GEMM with
    S^T added to the result.  A complex block meets the real S, and a real X,
    in real GEMMs (_real_matmul), on the caller's BLAS threads: one in a
    pipeline call, NumPy's outside count within a node-sum solve
    (_node_sum_threads).  For E and A on the same S and w, s E - A
    is the operator on the node matrices s X_E - X_A (_pencil); its GMRES is
    preconditioned node by node, with the inverses of its X_k
    (_node_sum_solver).
    """

    def __init__(self, S, w, X):
        self.S, self.w, self.X = S, w, X
        size = S.shape[1] * X.shape[1]
        self.shape = (size, size)

    @property
    def dtype(self):
        return self.X.dtype

    @property
    def nbytes(self) -> int:
        return self.S.nbytes + self.w.nbytes + self.X.nbytes

    def __matmul__(self, V):
        V = np.asarray(V)
        k, m = self.S.shape
        n = self.X.shape[1]
        Vm = V.reshape(m, -1)
        # the two blocks Z and Y of each node, n x r each
        node_bytes = 2 * np.result_type(Vm, self.X).itemsize * max(Vm.shape[1], 1)
        step = max(1, _CHUNK_BYTES // node_bytes)
        out = None
        for lo in range(0, k, step):
            S = self.S[lo:lo + step]
            Z = _real_matmul(S, Vm).reshape(len(S), n, -1)
            Y = _real_matmul(self.X[lo:lo + step], Z) * self.w[lo:lo + step, None, None]
            part = _real_matmul(S.T, Y.reshape(len(S), -1))
            if out is None:
                out = part
            else:
                out += part
        return out.reshape(V.shape)

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.shape[0], dtype=self.dtype)


@dataclass(eq=False)
class LTISystem:
    """Descriptor system E x' = A x + B u, y = C x.

    The one container of the pipeline: a realization at a parameter point,
    the projected chaos system and every reduced model are all of this
    type.  E and A are square n x n (dense, sparse or a node-sum operator,
    NodeKronSum), B is n x n_in, C is n_out x n.  E may be singular; the
    pencil (E, A) must be regular for any of the spectral routines to
    succeed.
    """

    E: object
    A: object
    B: object
    C: object

    def __post_init__(self):
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ValueError("E and A must be square and equally sized")
        if not sp.issparse(self.B):
            self.B = _as_columns(self.B, n, "B")
        elif self.B.shape[0] != n:
            raise ValueError("B must have n rows")
        C = self.C
        if not sp.issparse(C):
            C = np.atleast_2d(np.asarray(C, dtype=float))
            self.C = C
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
    """const + sum_l mu_l part_l at one parameter vector mu of length q.

    A (k, q) mu realizes the sum at every row at once, as a dense (k, ...)
    stack: coefficient l of every node broadcasts over its part.  Both add
    the terms in the order l = 0, 1, ..., so row j of a stack equals the
    sum at mu[j] bit for bit.
    """
    coef = np.asarray(mu, dtype=float)
    if coef.ndim == 2:
        coef = coef.T[:, :, None, None]
        const = np.broadcast_to(_as_dense(const), (coef.shape[1],) + const.shape)
        parts = [None if part is None else _as_dense(part) for part in parts]
    total = const.copy()
    for l, part in enumerate(parts):
        if part is not None:
            total = total + coef[l] * part
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
    LAPACK ggev is called as scipy.linalg.eig calls it, with the same
    workspace query, so (alpha, beta) are eig's to the bit, without its
    per-call wrapper: 30 leading blocks of BPF degree 2 took 3.4 instead of
    6.0 ms.  Non-finite input and a QZ that fails raise ValueError.
    """
    Ed = _as_dense(E)
    Ad = _as_dense(A)
    n = Ed.shape[0]
    if Ed.shape != (n, n) or Ad.shape != (n, n):
        raise ValueError("E and A must be square and equally sized")
    if n == 0:
        raise ValueError("pencil has no finite eigenvalues")
    if not (np.all(np.isfinite(Ad)) and np.all(np.isfinite(Ed))):
        raise ValueError("array must not contain infs or NaNs")
    ggev = sla.get_lapack_funcs("ggev", (Ad, Ed))
    lwork = int(ggev(Ad, Ed, lwork=-1)[-2][0].real)
    alphar, alphai, beta, _, _, _, info = ggev(Ad, Ed, 0, 0, lwork)
    if info != 0:
        raise ValueError(f"QZ (ggev) failed with LAPACK info = {info}")
    alpha = alphar + 1j * alphai
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


def _definite_gram(eig) -> bool:
    """Whether a chaos Gram matrix with ascending eigenvalues eig counts as
    positive definite: lambda_min > DEFINITENESS_RTOL * lambda_max."""
    return eig[0] > DEFINITENESS_RTOL * eig[-1]


def _singular(s) -> str:
    return f"(sE - A) is singular at s = {s}"


def _pencil(E, A):
    """The solver of K = s E - A for one pencil, at one shift or many: the
    one place that chooses how a pencil is solved.

    solver(s) returns solve(rhs), which applies K^-1; K is real for real E,
    A and s.  solver.solve_shifts(shifts, rhs) yields K^-1 rhs at each
    shift in turn for one block rhs, each shift's factorization freed
    before the next is made; it is the one loop that solves a block at
    many shifts.  Its solutions list their rows in the pencil's row order:
    row a is natural row solver.rows[a], where rows is None for the
    natural order.  They are not tested for finiteness; the caller tests
    what it forms from them.  Work that does not depend on s is done once
    per pencil.  A dense K is factored by LAPACK getrf (_dense_solver), a
    sparse one by SuperLU: in second-order form, at half the dimension,
    when E and A split exactly into position and velocity rows
    (_second_order_pencil), as MSD's do, and as it is otherwise
    (_SparsePencil), as BPF's is; the split took a cold MSD degree 3
    technique-i run with errors from 6.7-8.1 to 2.3-2.7 s.  A NodeKronSum
    one, technique ii's re-assembled system, is solved by GMRES with a
    node-wise preconditioner (_node_sum_solver) whose S G^-1, with G the
    chaos Gram matrix, is formed here.  A singular K, a Gram matrix that fails the test
    of assemble_via_quadrature (_definite_gram), a singular node matrix of a
    NodeKronSum K, a non-finite solution of solve or GMRES that misses
    _GMRES_RTOL raises ValueError naming s; a NodeKronSum E whose A is not
    one on the same S and w raises ValueError at once.
    """
    if isinstance(E, NodeKronSum):
        if not isinstance(A, NodeKronSum) or A.S is not E.S or A.w is not E.w:
            raise ValueError("operators on different nodes or weights")
        G = E.S.T @ (E.w[:, None] * E.S)
        SG = E.S @ np.linalg.inv(G) if _definite_gram(np.linalg.eigvalsh(G)) else None
        return _PencilSolver(lambda s: _node_sum_solver(
            NodeKronSum(E.S, E.w, s * E.X - A.X), SG, _singular(s)))
    if sp.issparse(E) or sp.issparse(A):
        split = _second_order_pencil(E, A)
        return _SparsePencil((A, E)) if split is None else split
    return _PencilSolver(lambda s: _dense_solver(E, A, s))


class _PencilSolver:
    """The solver _pencil returns for a dense or NodeKronSum pencil:
    solver(s) is at(s), the solve of K = s E - A at one shift, and
    solve_shifts calls it shift by shift, in the natural row order."""

    rows = None

    def __init__(self, at):
        self.at = at

    def __call__(self, s):
        return self.at(s)

    def solve_shifts(self, shifts, rhs):
        for s in shifts:
            yield self(s)(rhs)


def _openblas_threads(so):
    """(get, set) of the thread count of the OpenBLAS at path so, or None
    where it exports no known thread-count symbol."""
    lib = ctypes.CDLL(str(so))
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            names = (f"{prefix}get_num_threads{suffix}",
                     f"{prefix}set_num_threads{suffix}")
            if all(hasattr(lib, name) for name in names):
                get, set_ = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _bundled_openblas() -> dict:
    """{"numpy": (get, set), "scipy": (get, set)}: the thread count of the
    OpenBLAS bundled with each of the NumPy and SciPy wheels, for each wheel
    that has one (none under conda, a system BLAS, other platforms).
    Looked up at first use, not at import."""
    found = {}
    for module in (np, scipy):
        libs = Path(module.__file__).resolve().parents[1] / f"{module.__name__}.libs"
        for so in sorted(libs.glob("*openblas*.so*")):
            blas = _openblas_threads(so)
            if blas is not None:
                found[module.__name__] = blas
                break
    return found


# NumPy's OpenBLAS thread count as each open _blas_serial entry found it,
# outermost first; _node_sum_threads restores the first.  The counts are
# the process's, so they are kept once per process.
_NUMPY_THREADS_OUTSIDE = []


@contextlib.contextmanager
def _blas_serial():
    """Run every bundled OpenBLAS (_bundled_openblas) on the calling thread
    alone, and restore each library's thread count on exit, also when the
    body raises; technique ii's node-sum work is excepted
    (_node_sum_threads).

    SciPy's library serves SuperLU's factorizations and solves,
    freq_projection's zgemm, ARPACK and the QZ of pencil_spectrum; NumPy's
    serves Arnoldi's Gram-Schmidt dots and every @ on dense blocks.  With
    its default of one thread per core, each hands mid-sized kernels to a
    second thread that then spin-waits: on a 2-core machine SciPy's used
    0.31 CPU-s of a 0.44 s MSD degree 2 technique-i call, which took 0.32 s
    without it, and with NumPy's on one thread too the median warm
    technique-iii call of BPF degree 2 and MSD degree 3 fell from 85 to
    67 ms.  One thread also fixes the summation order of the dots that
    OpenBLAS splits above 10000 elements and of its threaded GEMMs, so
    sweep.csv does not depend on OPENBLAS_NUM_THREADS outside the node-sum
    solves.  Where no bundled library is found this does nothing.  Nested
    entries read 1 and leave 1; calls from several threads at once would
    share the counts.
    """
    libs = _bundled_openblas()
    before = {name: get() for name, (get, _) in libs.items()}
    _NUMPY_THREADS_OUTSIDE.append(before.get("numpy"))
    for _, set_ in libs.values():
        set_(1)
    try:
        yield
    finally:
        for name, (_, set_) in libs.items():
            set_(before[name])
        _NUMPY_THREADS_OUTSIDE.pop()


@contextlib.contextmanager
def _node_sum_threads():
    """Within a _blas_serial entry, run NumPy's bundled OpenBLAS at the
    thread count it had before the outermost entry, and restore the count
    found on exit; outside any entry, or without that library, do nothing.
    Re-entrant: a nested scope finds and restores the same count.

    It scopes technique ii's node-sum solves (_node_sum_solver), whose GMRES
    products with the k x m chaos values S, 21 MB at MSD degree 3's 2280
    nodes, use a second thread to advantage: with them on one thread a cold
    MSD degree 3 technique-ii Arnoldi took 5.1-5.7 s instead of 3.0-3.8 s
    on a 2-core machine.  A node-sum product outside a solve
    (Arnoldi's E v, reduce's E V) stays on one thread: NumPy's threaded GEMM
    rounds mid-sized products such as MSD degree 2's (200 x 171)(171 x 300)
    otherwise than one thread does, which made four of that run's 30 sweep
    rows depend on the thread count.  MSD degree 2's solves give the same
    bits at either count; MSD degree 3's do not, so that technique-ii run
    still depends on it.
    """
    blas = _bundled_openblas().get("numpy")
    if blas is None or not _NUMPY_THREADS_OUTSIDE:
        yield
        return
    get, set_ = blas
    before = get()
    set_(_NUMPY_THREADS_OUTSIDE[0])
    try:
        yield
    finally:
        set_(before)


class _SparsePencil(_PencilSolver):
    """SuperLU factorizations of a sparse matrix polynomial in s at any shifts.

    coeffs = (C_0, C_1, ..., C_d) holds K(s) = s^d C_d + ... + s C_1 - C_0:
    (A, E) for the pencil s E - A, and (-K, D, M) for _SecondOrderPencil's
    s^2 M + s D + K of stiffness K, damping D and mass M.  K(s) is formed by
    Horner's rule, s (... (s C_d + C_{d-1}) ...) - C_0, so that a pencil is
    formed as s E - A itself.  Called with s, it returns solve as _pencil
    describes.  A real shift (Arnoldi's) factors K(s) of the caller's
    matrices.  When its diagonal has no zero entry, as on MSD
    (min |d| / max |d| = 0.68 in first-order form at s = 0.7, 0.47 in
    second-order form), it takes _SYMMETRIC_SPLU: on MSD degree 3's
    first-order pencil the fill falls from 2.36M to 0.36M and the
    factorization from ~0.5 s to ~45 ms.  Otherwise it keeps SuperLU's
    defaults, COLAMD and partial pivoting.
    BPF's regularized MNA pencil has exact zeros on its diagonal at the
    source-current rows, and BPF degree 2's Krylov basis past order 15 is
    determined by rounding, so another pivot order, or another rounding of
    sp.csc_matrix(s * E - A), would move those orders' H2 errors (by up to
    9.3% with _SYMMETRIC_SPLU).  At the first complex shift, the
    coefficients are laid on the union of their patterns, that of
    |C_0| + ... + |C_d|: 0 E - A would drop E's entries (7497 nonzeros
    instead of 8532 on MSD degree 2), and an ordering of that pattern would
    not suit the other shifts.  That shift is factored with _SYMMETRIC_SPLU,
    and its column permutation P (the minimum-degree ordering, postordered
    by SuperLU) is applied to every coefficient symmetrically once.  Every
    later complex shift writes K(s) into one reused buffer and factors
    P K(s) P^T with the ordering "NATURAL" and the same pivot options; its
    solve permutes the right-hand side and un-permutes the solution.
    Skipping the ordering cut a first-order factorization from 2.7 to
    1.5 ms on MSD degree 2, from 5.2 to 3.6 ms on BPF degree 2 and from 140
    to 64 ms on MSD degree 3.

    solve_shifts(shifts, rhs, slope=None) takes every shift as a complex
    one, with the right-hand side rhs + s slope at shift s (rhs alone
    without a slope).  It permutes both once, rhs as a complex Fortran
    array, and yields SuperLU's own solution of each later shift in the
    permuted row order: a solution's row a is natural row rows[a], rows
    being the inverse of the ordering perm.  The first shift of an
    unordered pencil is solved in natural order and its solution permuted
    once.  Without per-shift copies of the block and of
    its solution, a warm MSD degree 2 technique-i call took 15k instead of
    23k minor page faults.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs
        self.K = self.perm = None

    def __call__(self, s):
        singular = _singular(s)
        if np.result_type(s, *(C.dtype for C in self.coeffs)).kind != "c":
            K = sp.csc_matrix(self._evaluate(s))
            options = _SYMMETRIC_SPLU if np.all(K.diagonal()) else {}
            return _superlu_solver(_splu(K, singular, options), singular)
        if self.perm is None:
            return _superlu_solver(self._order(s), singular)
        lu = _splu(self._shifted(s), singular, _REORDERED_SPLU)
        return _superlu_solver(lu, singular, self.perm, self.rows)

    def solve_shifts(self, shifts, rhs, slope=None):
        shifts = iter(shifts)
        if self.perm is None:
            s = next(shifts, None)
            if s is None:
                return
            yield self._order(s).solve(rhs if slope is None else rhs + s * slope)[self.rows]
        rhs = np.asfortranarray(np.asarray(rhs)[self.rows], dtype=complex)
        if slope is not None:
            slope, buffer = np.asfortranarray(np.asarray(slope)[self.rows]), np.empty_like(rhs)
        for s in shifts:
            if slope is not None:  # SuperLU solves a copy, so the buffer is reused
                np.multiply(slope, s, out=buffer)
                buffer += rhs
            # the factorization is a temporary: freed once it has solved
            yield _splu(self._shifted(s), _singular(s), _REORDERED_SPLU).solve(
                rhs if slope is None else buffer)

    def _evaluate(self, s):
        """K(s) of the caller's coefficients, as sparse matrix arithmetic."""
        C_0, *rest = self.coeffs
        K = rest[-1]
        for C in rest[-2::-1]:
            K = s * K + C
        return s * K - C_0

    def _shifted(self, s):
        """K(s) on the held pattern, written into K's own data."""
        C_0, *rest = self.Cu
        data = self.K.data
        np.multiply(rest[-1], s, out=data)
        for C in rest[-2::-1]:
            data += C
            data *= s
        data -= C_0
        return self.K

    def _order(self, s):
        """Factor the first complex shift with _SYMMETRIC_SPLU and permute
        the coefficients by its ordering; returns the factorization."""
        coos = [sp.coo_matrix(C) for C in self.coeffs]
        shape = coos[0].shape
        at = (np.concatenate([C.row for C in coos]), np.concatenate([C.col for C in coos]))
        # one canonical CSC structure for all, from the same coordinates
        ends = np.cumsum([0] + [C.nnz for C in coos])
        union = []
        for C, lo, hi in zip(coos, ends, ends[1:]):
            data = np.zeros(ends[-1], C.dtype)
            data[lo:hi] = C.data
            union.append(sp.csc_matrix((data, at), shape))
        U = union[0]
        self.Cu = [C.data for C in union]
        self.K = sp.csc_matrix((np.empty(U.nnz, complex), U.indices, U.indptr), shape)
        lu = _splu(self._shifted(s), _singular(s), _SYMMETRIC_SPLU)
        perm = lu.perm_c
        # P K P^T holds K[i, j] at (perm[i], perm[j]): gather by the inverse
        rows = np.argsort(perm)
        order = sp.csc_matrix((np.arange(U.nnz), U.indices, U.indptr), shape)[rows][:, rows]
        order.sort_indices()
        self.Cu = [C[order.data] for C in self.Cu]
        self.K = sp.csc_matrix((np.empty(order.nnz, complex), order.indices, order.indptr),
                               shape)
        self.perm, self.rows = perm, rows
        return lu


def _second_order_pencil(E, A):
    """The second-order solver of a sparse pencil s E - A that splits
    exactly, or None.

    The split holds when n = 2h and h position rows p each store one entry
    of E, 1.0 at (p, p), and one of A, 1.0 at (p, v(p)); when v maps them
    one-to-one onto the other h rows, the velocity rows; and when E stores
    nothing in the velocity rows at the position columns.  A row p then
    reads s x_p - x_v(p) = b_p, so the velocities are eliminated with no
    approximation (_SecondOrderPencil).  MSD's projected system splits in
    every chaos block, and so does one saved and reloaded from Matrix
    Market; BPF's MNA pencil, and any near miss (an entry of 1 + 2^-52, an
    extra stored entry, explicit zeros included), does not.
    """
    n = E.shape[0]
    E, A = sp.csr_matrix(E), sp.csr_matrix(A)
    single = np.flatnonzero((np.diff(E.indptr) == 1) & (np.diff(A.indptr) == 1))
    e, a = E.indptr[single], A.indptr[single]
    pos = single[(E.indices[e] == single) & (E.data[e] == 1.0) & (A.data[a] == 1.0)]
    if 2 * pos.size != n:
        return None
    vel = A.indices[A.indptr[pos]]
    is_pos = np.zeros(n, bool)
    is_pos[pos] = True
    if np.any(np.bincount(vel, minlength=n)[~is_pos] != 1):
        return None
    E_vel = E[vel]
    if np.any(is_pos[E_vel.indices]):
        return None
    return _SecondOrderPencil(E_vel, A[vel], pos, vel)


class _SecondOrderPencil(_PencilSolver):
    """The solver of s E - A for a pencil that splits into position rows p
    and velocity rows v (_second_order_pencil), at half the dimension.

    With x = (q, v) and b = (b_1, b_2) split alike, the position rows read
    s q - v = b_1 and the velocity rows s M v + D v + K q = b_2, where
    M = E[v, v], D = -A[v, v] and K = -A[v, p].  So v = s q - b_1 and
    (s^2 M + s D + K) q = b_2 + D b_1 + s M b_1, the second-order form of
    Tisseur & Meerbergen (SIAM Rev. 43, 2001).  The h x h polynomial is
    solved by a _SparsePencil on (-K, D, M), with its ordering, reused
    buffer and real-shift diagonal test; this class only maps right-hand
    sides and solutions.  solve_shifts forms b_2 + D b_1 and M b_1 once per
    block, and yields (q; v) with the h position rows first, both in the
    polynomial's row order: rows is (p[r], v[r]) for its rows r.

    Against the first-order pencil on MSD degree 2, a complex shift's LU
    holds 7616 instead of 14757 entries and takes 0.55 instead of 1.13 ms,
    and its 31-column solve 0.93 instead of 1.87 ms; on MSD degree 3 the LU
    holds 192716 instead of 358894 entries, and the real shift's takes
    11.6 instead of 32 ms.  Eliminating v costs about eps |s| in it: the
    residual relative to the right-hand side was 1.5e-13 at omega = 1e3 and
    1.4e-12 at 1e4, against 1.5e-16 in first-order form; the largest node
    in use is omega = 8851, of the 200-node error grid.
    """

    def __init__(self, E_vel, A_vel, pos, vel):
        self.pos, self.vel = pos, vel
        self.M, self.D = E_vel[:, vel], -A_vel[:, vel]
        self.polynomial = _SparsePencil((A_vel[:, pos], self.D, self.M))

    @property
    def rows(self):
        r = self.polynomial.rows
        return None if r is None else np.r_[self.pos[r], self.vel[r]]

    def _split(self, rhs):
        """b_1, b_2 + D b_1 and M b_1 of a right-hand side."""
        rhs = np.asarray(rhs)
        b_1 = rhs[self.pos]
        return b_1, rhs[self.vel] + self.D @ b_1, self.M @ b_1

    def __call__(self, s):
        solve = self.polynomial(s)

        def split_solve(rhs):
            b_1, rhs_q, slope = self._split(rhs)
            q = solve(rhs_q + s * slope)
            x = np.empty((2 * len(q),) + q.shape[1:], q.dtype)
            x[self.pos] = q
            x[self.vel] = s * q - b_1
            return x

        return split_solve

    def solve_shifts(self, shifts, rhs):
        shifts = list(shifts)
        b_1, rhs_q, slope = self._split(rhs)
        solutions = self.polynomial.solve_shifts(shifts, rhs_q, slope)
        del rhs_q, slope
        for j, s in enumerate(shifts):
            q = next(solutions)
            if j == 0:  # to the solutions' row order, once
                b_1 = np.asfortranarray(b_1[self.polynomial.rows])
            h = len(q)
            x = np.empty((2 * h,) + q.shape[1:], complex, order="F")
            x[:h] = q
            np.multiply(q, s, out=x[h:])
            x[h:] -= b_1
            del q
            yield x
            del x  # the next shift is solved without this one


def _splu(K, singular, options):
    try:
        return spla.splu(K, **options)
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise ValueError(singular) from exc


def _superlu_solver(lu, singular, perm=None, inv=None):
    """solve(rhs) from a SuperLU factorization.  With perm, lu factors
    P K P^T for the K solved for, and inv is perm's inverse."""

    def solve(rhs):
        if perm is not None:
            rhs = rhs[inv]
        x = lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise ValueError(singular)
        return x if perm is None else x[perm]

    return solve


def _gmres(K, precondition, b):
    """x = P^-1 u for K P^-1 u = b by unrestarted GMRES from u = 0.

    precondition applies P^-1.  The Arnoldi basis Q is orthogonalized by
    classical Gram-Schmidt run twice, its projections conj(Q) v formed as
    conj(Q conj(v)), a GEMV that reads Q in place, and Givens rotations
    track the residual norm.  Once that estimate meets _GMRES_RTOL ||b||, x is formed
    and its true residual ||b - K x|| checked; rounding can leave it just
    above the estimate (1.0002e-12 against 1e-12 in one MSD-2 solve), and
    then the iteration goes on.  Returns None when _GMRES_MAXITER
    iterations end without a true residual within the tolerance, or when
    the Krylov space stops growing.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    dtype = np.result_type(K.dtype, b)
    steps = _GMRES_MAXITER
    Q = np.empty((steps + 1, b.size), dtype)
    R = np.zeros((steps, steps), dtype)
    cs, sn = np.zeros(steps), np.zeros(steps, dtype)
    g = np.zeros(steps + 1, dtype)
    g[0] = beta
    Q[0] = b / beta
    for j in range(steps):
        v = K @ precondition(Q[j])
        h = np.zeros(j + 1, dtype)
        for _ in range(2):
            c = (Q[:j + 1] @ v.conj()).conj()
            v -= c @ Q[:j + 1]
            h += c
        h_next = np.linalg.norm(v)
        for i in range(j):
            h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                              cs[i] * h[i + 1] - np.conj(sn[i]) * h[i])
        a = abs(h[j])
        rho = np.hypot(a, h_next)
        if rho == 0.0:
            return None
        phase = h[j] / a if a else 1.0
        cs[j], sn[j] = a / rho, phase * h_next / rho
        h[j] = phase * rho
        R[:j + 1, j] = h
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= _GMRES_RTOL * beta:
            y = sla.solve_triangular(R[:j + 1, :j + 1], g[:j + 1])
            x = precondition(y @ Q[:j + 1])
            if np.linalg.norm(b - K @ x) <= _GMRES_RTOL * beta:
                return x
        if h_next == 0.0:
            return None
        Q[j + 1] = v / h_next
    return None


def _node_sum_solver(K, SG, singular):
    """solve(rhs) for a NodeKronSum K by preconditioned GMRES.

    K = (S^T diag(w) (x) I) blockdiag(X_k) (S (x) I), and the preconditioner
    inverts each factor in turn: P = (G^-1 S^T diag(w) (x) I) blockdiag(X_k^-1)
    (S G^-1 (x) I), with G = S^T diag(w) S the chaos Gram matrix.  P is K^-1
    when k = m (S square), and G^-1 (x) X^-1, the mean-based preconditioner
    of Powell & Elman (IMA J. Numer. Anal. 29, 2009) with the Gram factor of
    Ullmann (SIAM J. Sci. Comput. 32, 2010), when every X_k is one X; unlike
    that one it follows the spread of the X_k.  On an (m, n)-shaped vector V
    it is SG^T diag(w) Y with Y_k = X_k^-1 (SG V)_k: two k x m GEMMs and k
    batched n x n products.  SG = S G^-1 is formed once per pencil (None if G
    is not definite), and the X_k^-1 once per shift by one stacked inverse.
    A column whose true residual does not reach _GMRES_RTOL within
    _GMRES_MAXITER iterations, a G that is not definite or a singular X_k
    raises ValueError(singular).
    """
    if SG is None:
        raise ValueError(singular)
    S, w, X = K.S, K.w, K.X
    m, n = S.shape[1], X.shape[1]
    try:
        X_inv = np.linalg.inv(X)
    except np.linalg.LinAlgError as exc:
        raise ValueError(singular) from exc

    def precondition(v):
        Z = _real_matmul(SG, v.reshape(m, n))
        Y = np.einsum("kab,kb->ka", X_inv, Z) * w[:, None]
        return _real_matmul(SG.T, Y).ravel()

    @_node_sum_threads()
    def solve(rhs):
        rhs = np.asarray(rhs)
        b = rhs.reshape(rhs.shape[0], -1)
        x = np.empty(b.shape, np.result_type(X, b))
        for j in range(b.shape[1]):
            xj = _gmres(K, precondition, b[:, j])
            if xj is None:
                raise ValueError(singular)
            x[:, j] = xj
        return x.reshape(rhs.shape)

    return solve


def _dense_solver(E, A, s):
    """solve(rhs) for a dense s E - A, factored by LAPACK getrf and solved by
    getrs."""
    singular = _singular(s)
    K = np.asarray(s * E - A)
    getrf = sla.get_lapack_funcs("getrf", (K,))
    lu, piv, info = getrf(K, overwrite_a=True)
    if info != 0:
        raise ValueError(singular)

    def solve(rhs):
        # getrs as scipy.linalg.lu_solve calls it, in the type of lu and rhs,
        # without lu_solve's per-call batching wrapper
        rhs = np.asarray(rhs)
        getrs = sla.get_lapack_funcs("getrs", (lu, rhs))
        x, info = getrs(lu, piv, rhs)
        if info != 0:
            raise ValueError(f"getrs: illegal value in argument {-info}")
        if not np.all(np.isfinite(x)):
            raise ValueError(singular)
        return x

    return solve


def shifted_solver(E, A, s):
    """solve(rhs) for K = s E - A at one shift, from _pencil: it applies
    K^-1; a singular K raises ValueError."""
    return _pencil(E, A)(s)


def transfer_on_grid(sys: LTISystem, omegas) -> np.ndarray:
    """H(i omega) stacked over a frequency grid, shape (k, n_out, n_in).

    A sparse C stays sparse (complex CSR).  A sparse or NodeKronSum pencil
    is solved once per grid point by its solver's solve_shifts, never
    densified; a sparse one is ordered once, at the first point, and C's
    columns are permuted once to its solutions' row order.
    A dense pencil forms i omega E - A for a chunk of points at once, as
    many as fit in _CHUNK_BYTES (one point when a single pencil is larger),
    and solves the chunk with one stacked np.linalg.solve.  A singular pencil or a
    non-finite solution at any point raises ValueError naming that s.
    """
    s = 1j * np.asarray(omegas, dtype=float)
    B = _as_dense(sys.B)
    n, n_in = B.shape
    out = np.empty((s.size, sys.n_out, n_in), dtype=complex)
    if sp.issparse(sys.E) or sp.issparse(sys.A) or isinstance(sys.E, NodeKronSum):
        solver = _pencil(sys.E, sys.A)
        C = sp.csr_matrix(sys.C, dtype=complex) if sp.issparse(sys.C) else sys.C
        for j, x in enumerate(solver.solve_shifts(s, B.astype(complex))):
            if not np.all(np.isfinite(x)):
                raise ValueError(_singular(s[j]))
            if j == 0 and solver.rows is not None:
                C = C[:, solver.rows]  # to the solutions' row order, once
            out[j] = C @ x
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
            raise ValueError(_singular(sc[np.argmin(finite)]))
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
    not vanish at infinity) raise H2DivergenceError.  On the projected MSD
    model it does not converge: at degree 1 it warns and returns 4.26157,
    against a converged 4.26636.
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
