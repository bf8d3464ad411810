"""Spectral projection of parameter-affine systems onto a chaos basis.

The projected system couples all chaos coefficients of the state into one
deterministic descriptor system of dimension m * n.  Rows and columns are
ordered block-wise by basis polynomial: block i holds the coefficient of
basis function i, so the leading n x n blocks of E and A are the mean
system.  The output matrix stacks the chaos coefficients of every original
output, so n_out is m times the family's output count.  Affine parameter
dependence yields an exact block assembly from moment matrices (sparse);
arbitrary (transformed) dependence is handled by quadrature over parameter
nodes, and the result is kept as the node sum sum_k w_k (s_k s_k^T) (x) X_k
(systems.NodeKronSum) instead of dense (m n) x (m n) matrices.
"""

import numpy as np
import scipy.sparse as sp

from .pce import PCBasis, QuadratureRule, eval_basis, moment_matrix
from .systems import AffineParamSystem, LTISystem, NodeKronSum, _as_dense, _definite_gram


def _coef_to_sparse(M):
    if sp.issparse(M):
        return M.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))


def _assemble_square(const, parts, G):
    """sum_l G(l) (x) M_l over the terms that are set; G(l) gives G_l and is
    asked only for those terms."""
    total = sp.kron(G(0), _coef_to_sparse(const), format="csr")
    for l, part in enumerate(parts):
        if part is not None:
            total = total + sp.kron(G(l + 1), _coef_to_sparse(part), format="csr")
    return total.tocsr()


def assemble(aps: AffineParamSystem, basis: PCBasis) -> LTISystem:
    """Exact projection of an affine family onto the chaos basis.

    E and A become sum_l G_l (x) M_l over the affine terms, with G_0 the
    identity pairing the constant part.  B collects the chaos coefficients
    of the affine input matrix, which live in the first column of each G_l.
    E, A and C are sparse (CSR).
    """
    if tuple(aps.dists) != tuple(basis.dists):
        raise ValueError("system parameters and basis distributions must match")
    m = basis.m
    Gs = [moment_matrix(basis, l) for l in range(basis.q + 1)]
    E_hat = _assemble_square(aps.E0, aps.E_parts, Gs.__getitem__)
    A_hat = _assemble_square(aps.A0, aps.A_parts, Gs.__getitem__)
    C_hat = _assemble_square(aps.C0, aps.C_parts, Gs.__getitem__)

    B0 = np.atleast_2d(_as_dense(aps.B0))
    e1 = np.zeros(m)
    e1[0] = 1.0
    B_hat = np.kron(e1[:, None], B0)
    for l, part in enumerate(aps.B_parts):
        if part is not None:
            Bl = np.atleast_2d(_as_dense(part))
            g_col = Gs[l + 1][:, [0]].toarray().ravel()
            B_hat = B_hat + np.kron(g_col[:, None], Bl)
    return LTISystem(E=E_hat, A=A_hat, B=B_hat, C=C_hat)


def assemble_output(aps: AffineParamSystem, basis: PCBasis):
    """Only the projected output matrix (exact, from the moment matrices of
    the parameters that C depends on)."""
    if tuple(aps.dists) != tuple(basis.dists):
        raise ValueError("system parameters and basis distributions must match")
    return _assemble_square(aps.C0, aps.C_parts, lambda l: moment_matrix(basis, l))


def assemble_via_quadrature(matrix_fn, basis: PCBasis, rule: QuadratureRule,
                            C=None) -> LTISystem:
    """Projection of a general parameter dependence by numerical integration.

    matrix_fn maps the (k, q) array of quadrature nodes to a tuple (A, B, E)
    of dense stacks: A and E of shape (k, n, n) and B of shape (k, n, n_in),
    row j of each realized at node j.  It is called once, with every node.
    The projected blocks are weighted sums of S(mu_k) (x) A(mu_k) and
    s(mu_k) (x) B(mu_k) over the nodes; with positive weights this preserves
    definiteness properties that hold at every node, provided the chaos Gram
    matrix sum_k w_k s(mu_k) s(mu_k)^T is positive definite.  A rule whose
    Gram matrix is singular to within DEFINITENESS_RTOL (in particular any
    rule with fewer nodes than basis polynomials) is refused before
    matrix_fn is called.  C, if given, is attached unchanged (the output
    matrix of an untransformed family projects exactly, so callers pass the
    exact block matrix).

    The projected E and A are NodeKronSum operators on S, w and the stacked
    node matrices: they hold k (m + 1 + 2 n^2) floats against 2 (m n)^2
    for the dense pair, and shifted_solver solves their pencil by
    preconditioned GMRES.  B is dense (m n x n_in).
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
    if not _definite_gram(eig):
        raise ValueError(
            f"quadrature with k = {rule.k} nodes gives a singular chaos Gram "
            f"matrix for m = {m} basis polynomials (lambda_min / lambda_max = "
            f"{eig[0] / eig[-1]:.1e}); at least m = {m} nodes are needed")
    As, Bs, Es = (np.asarray(X, dtype=float) for X in matrix_fn(rule.nodes))
    n = As.shape[-1]
    if (As.shape != (rule.k, n, n) or Es.shape != As.shape or Bs.ndim != 3
            or Bs.shape[:2] != (rule.k, n)):
        raise ValueError("matrix_fn must return A and E as (k, n, n) stacks and "
                         "B as a (k, n, n_in) stack, one row per node")
    B_hat = np.einsum("ki,kac->iac", wS, Bs).reshape(m * n, -1)
    if C is None:
        C = np.zeros((0, m * n))
    w = rule.weights
    return LTISystem(E=NodeKronSum(S, w, Es), A=NodeKronSum(S, w, As), B=B_hat, C=C)
