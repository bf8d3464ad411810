"""Spectral projection of parameter-affine systems onto a chaos basis.

The projected system couples all chaos coefficients of the state into one
deterministic descriptor system of dimension m * n.  Affine parameter
dependence yields an exact block assembly from moment matrices; arbitrary
(transformed) dependence is handled by quadrature over parameter nodes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .pce import PCBasis, QuadratureRule, eval_basis, moment_matrix
from .systems import DEFINITENESS_RTOL, AffineParamSystem, LTISystem, _as_dense

# Budget for the intermediates of one chunk of _weighted_kron_sum.
_CHUNK_BYTES = 8 * 2 ** 20


@dataclass(eq=False)
class GalerkinSystem:
    """Projected system with m chaos blocks of state dimension n each.

    Rows and columns are ordered block-wise by basis polynomial: block i
    holds the coefficient of basis function i.  The output matrix stacks the
    chaos coefficients of every original output, so n_out equals
    m * n_out_original.
    """

    E: object
    A: object
    B: object
    C: object
    m: int
    n: int
    provenance: str = "exact-affine"

    def __post_init__(self):
        mn = self.m * self.n
        if self.E.shape != (mn, mn) or self.A.shape != (mn, mn):
            raise ValueError("E and A must be (m*n) x (m*n)")
        if self.B.shape[0] != mn:
            raise ValueError("B must have m*n rows")
        if self.C.shape[1] != mn:
            raise ValueError("C must have m*n columns")

    @property
    def dim(self) -> int:
        return self.m * self.n

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @property
    def n_out(self) -> int:
        return self.C.shape[0]

    def as_lti(self) -> LTISystem:
        return LTISystem(E=self.E, A=self.A, B=self.B, C=self.C)


def _coef_to_sparse(M):
    if sp.issparse(M):
        return M.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))


def _assemble_square(const, parts, Gs, m):
    total = sp.kron(Gs[0], _coef_to_sparse(const), format="csr")
    for l, part in enumerate(parts):
        if part is not None:
            total = total + sp.kron(Gs[l + 1], _coef_to_sparse(part), format="csr")
    return total.tocsr()


def assemble(aps: AffineParamSystem, basis: PCBasis) -> GalerkinSystem:
    """Exact projection of an affine family onto the chaos basis.

    E and A become sum_l G_l (x) M_l over the affine terms, with G_0 the
    identity pairing the constant part.  B collects the chaos coefficients
    of the affine input matrix, which live in the first column of each G_l.
    """
    if tuple(aps.dists) != tuple(basis.dists):
        raise ValueError("system parameters and basis distributions must match")
    m, n = basis.m, aps.n
    Gs = [moment_matrix(basis, l) for l in range(basis.q + 1)]
    E_hat = _assemble_square(aps.E0, aps.E_parts, Gs, m)
    A_hat = _assemble_square(aps.A0, aps.A_parts, Gs, m)
    C_hat = _assemble_square(aps.C0, aps.C_parts, Gs, m)

    B0 = np.atleast_2d(_as_dense(aps.B0))
    e1 = np.zeros(m)
    e1[0] = 1.0
    B_hat = np.kron(e1[:, None], B0)
    for l, part in enumerate(aps.B_parts):
        if part is not None:
            Bl = np.atleast_2d(_as_dense(part))
            g_col = Gs[l + 1][:, [0]].toarray().ravel()
            B_hat = B_hat + np.kron(g_col[:, None], Bl)
    return GalerkinSystem(E=E_hat, A=A_hat, B=B_hat, C=C_hat, m=m, n=n,
                          provenance="exact-affine")


def assemble_output(aps: AffineParamSystem, basis: PCBasis):
    """Only the projected output matrix (exact, from moment matrices)."""
    if tuple(aps.dists) != tuple(basis.dists):
        raise ValueError("system parameters and basis distributions must match")
    Gs = [moment_matrix(basis, l) for l in range(basis.q + 1)]
    return _assemble_square(aps.C0, aps.C_parts, Gs, basis.m)


def _weighted_kron_sum(S, wS, X):
    """Dense sum_k (wS_k S_k^T) (x) X_k over the nodes, in block-row chunks.

    Block rows I of the (m, n, m, n) view are one GEMM over the nodes:
    S^T (wS[:, I] (x) X), whose [j, i, a, b] layout is transposed into
    place.  A chunk's two intermediates stay within _CHUNK_BYTES.
    """
    k, m = S.shape
    n = X.shape[1]
    out = np.empty((m, n, m, n))
    X_flat = X.reshape(k, 1, n * n)
    rows = max(1, _CHUNK_BYTES // (8 * (k + m) * n * n))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        Y = (wS[:, lo:hi, None] * X_flat).reshape(k, -1)
        out[lo:hi] = (S.T @ Y).reshape(m, hi - lo, n, n).transpose(1, 2, 0, 3)
    return out.reshape(m * n, m * n)


def assemble_via_quadrature(matrix_fn, basis: PCBasis, rule: QuadratureRule,
                            C=None, provenance: str = "quadrature") -> GalerkinSystem:
    """Projection of a general parameter dependence by numerical integration.

    matrix_fn maps a parameter vector to a tuple (A, B, E) of dense arrays.
    The projected blocks are weighted sums of S(mu_k) (x) A(mu_k) and
    s(mu_k) (x) B(mu_k) over the nodes; with positive weights this preserves
    definiteness properties that hold at every node, provided the chaos Gram
    matrix sum_k w_k s(mu_k) s(mu_k)^T is positive definite.  A rule whose
    Gram matrix is singular to within DEFINITENESS_RTOL (in particular any
    rule with fewer nodes than basis polynomials) is refused before
    matrix_fn is called.  C, if given, is attached unchanged (the output
    matrix of an untransformed family projects exactly, so callers pass the
    exact block matrix).

    The projected E and A are dense by nature: together they take
    2 (m n)^2 8 bytes.  The sum over the nodes runs as chunked GEMMs whose
    working memory beyond the output stays within a few megabytes.
    """
    if rule.nodes.shape[1] != basis.q:
        raise ValueError("quadrature nodes and basis dimension differ")
    if np.any(rule.weights <= 0):
        raise ValueError("quadrature weights must be strictly positive")
    if rule.k == 0:
        raise ValueError("quadrature rule has no nodes")
    m = basis.m
    S = eval_basis(basis, rule.nodes)
    wS = rule.weights[:, None] * S
    eig = np.linalg.eigvalsh(wS.T @ S)
    if eig[0] <= DEFINITENESS_RTOL * eig[-1]:
        raise ValueError(
            f"quadrature with k = {rule.k} nodes gives a singular chaos Gram "
            f"matrix for m = {m} basis polynomials (lambda_min / lambda_max = "
            f"{eig[0] / eig[-1]:.1e}); at least m = {m} nodes are needed")
    As, Bs, Es = [], [], []
    for k, mu in enumerate(rule.nodes):
        try:
            A_k, B_k, E_k = matrix_fn(mu)
        except Exception as exc:
            raise RuntimeError(f"matrix evaluation failed at node {k}: {exc}") from exc
        A_k = np.asarray(A_k, dtype=float)
        B_k = np.atleast_2d(np.asarray(B_k, dtype=float))
        if B_k.shape[0] == 1 and A_k.shape[0] != 1:
            B_k = B_k.T
        As.append(A_k)
        Bs.append(B_k)
        Es.append(np.asarray(E_k, dtype=float))
    n = As[0].shape[0]
    A_hat = _weighted_kron_sum(S, wS, np.stack(As))
    E_hat = _weighted_kron_sum(S, wS, np.stack(Es))
    B_hat = np.einsum("ki,kac->iac", wS, np.stack(Bs)).reshape(m * n, -1)
    if C is None:
        C = np.zeros((0, m * n))
    return GalerkinSystem(E=E_hat, A=A_hat, B=B_hat, C=C, m=m, n=n,
                          provenance=provenance)
