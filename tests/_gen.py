"""Random problem generators and reference oracles shared across test modules."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from sgmor import AffineParamSystem, QuadratureRule, shifted_solver
from sgmor.systems import _affine_sum, _as_dense


def random_stable_ode(rng, n, margin=0.05):
    """Dense A with spectral abscissa <= -margin and E = I."""
    A = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A).real)
    A -= (shift + margin) * np.eye(n)
    return A


def random_stable_generalized(rng, n, margin=0.05):
    """(E, A) with E nonsingular and all pencil eigenvalues left of -margin.

    Built as A = E G with G stable, so eig(E, A) = eig(G) exactly.
    """
    E = rng.standard_normal((n, n)) + n * np.eye(n) * 0.1
    # keep E comfortably nonsingular
    u, s, vt = np.linalg.svd(E)
    s = np.maximum(s, 0.1 * s[0])
    E = u @ np.diag(s) @ vt
    G = random_stable_ode(rng, n, margin)
    return E, E @ G


def random_spd(rng, n, floor=0.1):
    Q = rng.standard_normal((n, n))
    M = Q @ Q.T + floor * n * np.eye(n)
    return 0.5 * (M + M.T)


def random_dissipative(rng, n):
    """(E, A) with E symmetric positive definite, A + A^T negative definite."""
    E = random_spd(rng, n)
    skew = rng.standard_normal((n, n))
    skew = skew - skew.T
    A = skew - random_spd(rng, n)
    return E, A


def random_orthonormal(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q


def random_stable_sparse(rng, n, density=0.1, margin=0.5):
    """Sparse stable (E, A) pair with E = I + small sparse part."""
    A = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal).toarray()
    A = A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)
    E = np.eye(n) + 0.1 * sp.random(n, n, density=density, random_state=rng,
                                    data_rvs=rng.standard_normal).toarray()
    # push E away from singularity
    u, s, vt = np.linalg.svd(E)
    s = np.maximum(s, 0.2)
    E = u @ np.diag(s) @ vt
    return sp.csr_matrix(E), sp.csr_matrix(A)


def transfer_eval(sys, s):
    """H(s) = C (s E - A)^-1 B at one point, real or complex."""
    return _as_dense(sys.C) @ shifted_solver(sys.E, sys.A, s)(_as_dense(sys.B))


def lyap_residual(E, A, F, M) -> float:
    """Relative residual ||A^T M E + E^T M A + F||_F / ||F||_F."""
    Ed, Ad, Fd, Md = _as_dense(E), _as_dense(A), _as_dense(F), _as_dense(M)
    R = Ad.T @ Md @ Ed + Ed.T @ Md @ Ad + Fd
    nF = np.linalg.norm(Fd)
    if nF == 0.0:
        raise ValueError("F must be nonzero")
    return float(np.linalg.norm(R) / nF)


def lyap_one_pencil(E, A, F) -> np.ndarray:
    """The one-pencil Lyapunov solve that the stacked solve_lyap_direct
    replaced, kept as a reference: E's getrf serves the reductions through
    scipy's lu_solve, then the same Schur form and trsyl step."""
    Ed, Ad, Fd = _as_dense(E), _as_dense(A), _as_dense(F)
    lu, piv, _ = sla.get_lapack_funcs("getrf", (Ed,))(Ed)
    At = sla.lu_solve((lu, piv), Ad.T, trans=1).T
    T, Z = sla.schur(At.T, output="real")
    assert np.diag(T).max() < 0
    Ft = sla.lu_solve((lu, piv), sla.lu_solve((lu, piv), Fd.T, trans=1).T, trans=1)
    Y, scale, info = sla.get_lapack_funcs("trsyl", (T,))(T, T, Z.T @ (-Ft @ Z), tranb="T")
    assert info == 0
    M = Z @ (scale * Y) @ Z.T
    return 0.5 * (M + M.T)


def tensor_rule(dists, nodes_per_dim: int) -> QuadratureRule:
    """Full tensor Gauss rule in physical coordinates."""
    dists = tuple(dists)
    q = len(dists)
    if q < 1:
        raise ValueError("need at least one distribution")
    if nodes_per_dim < 1:
        raise ValueError("nodes_per_dim must be positive")
    axes, wts = [], []
    for dist in dists:
        xi, w = dist.gauss_points(nodes_per_dim)
        axes.append(dist.unstandardize(xi))
        wts.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*wts, indexing="ij")
    weights = np.ones(nodes_per_dim ** q)
    for wg in wgrids:
        weights = weights * wg.reshape(-1)
    return QuadratureRule(nodes=nodes, weights=weights)


def stacked(matrix_fn):
    """A per-node matrix_fn(mu) -> (A, B, E) as the stacked form that
    assemble_via_quadrature calls once with all (k, q) nodes."""
    def stacked_fn(nodes):
        A, B, E = zip(*(matrix_fn(mu) for mu in nodes))
        return np.stack(A), np.stack(B), np.stack(E)

    return stacked_fn


def theta_family(aps: AffineParamSystem, theta: float) -> AffineParamSystem:
    """Shrink the parameter spread toward the means by a factor theta in [0, 1].

    Realizations of the returned family at mu match the original family at
    mu_bar + theta * (mu - mu_bar).  The distributions are kept; the affine
    terms are rescaled, with the displaced mass folded into the constant
    part.  At theta = 0 every realization equals the mean realization.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    mu_shift = (1.0 - theta) * aps.nominal()

    def scale_parts(parts):
        return tuple(None if p is None else theta * p for p in parts)

    return AffineParamSystem(
        E0=_affine_sum(aps.E0, aps.E_parts, mu_shift),
        A0=_affine_sum(aps.A0, aps.A_parts, mu_shift),
        B0=_affine_sum(aps.B0, aps.B_parts, mu_shift),
        C0=_affine_sum(aps.C0, aps.C_parts, mu_shift),
        E_parts=scale_parts(aps.E_parts),
        A_parts=scale_parts(aps.A_parts),
        B_parts=scale_parts(aps.B_parts),
        C_parts=scale_parts(aps.C_parts),
        dists=aps.dists,
    )
