"""Generalized Lyapunov equations and frequency-domain projected solutions.

Solves A^T M E + E^T M A + F = 0 for stable pencils with nonsingular E.
Besides the dense direct solve there is a quadrature variant that never forms
M: it computes W = M E V directly from the integral representation
M = (1/2pi) int (i w E - A)^-H F (i w E - A)^-1 dw, which is what the
stabilizing projection matrices are built from.
"""

import numpy as np
import scipy.linalg as sla

from .frequency import FrequencyRule
# pencil_spectrum is unused here; perfbench/tracer.py wraps it by this attribute
from .systems import _as_columns, _as_dense, _pencil, pencil_spectrum  # noqa: F401

__all__ = ["solve_lyap_direct", "freq_projection"]


def solve_lyap_direct(E, A, F) -> np.ndarray:
    """Dense solve of A^T M E + E^T M A + F = 0; returns symmetric M.

    E, A and F are one n x n pencil and right-hand side, or (k, n, n) stacks
    of k of them; a stack returns the k solutions as a (k, n, n) stack, and
    one pencil is solved as a stack of one.  Requires every E nonsingular
    and every pencil (E, A) asymptotically stable; a stack's refusal names
    the first node that fails.  The reduction to At = A E^-1 and
    Ft = E^-T F E^-1 is one stacked np.linalg.solve per product.  Per
    matrix, E's LU pivots decide singularity, and one real Schur form
    T = Z^T At^T Z serves the rest: its diagonal carries the real parts of
    the pencil eigenvalues (a complex pair's 2x2 block has its real part on
    both diagonal entries), and the Bartels-Stewart step solves
    T Y + Y T^T = Z^T (-Ft) Z with LAPACK trsyl.  With F symmetric positive
    definite the solution M is symmetric positive definite as well.
    """
    Ed, Ad, Fd = _as_dense(E), _as_dense(A), _as_dense(F)
    single = Ed.ndim == 2
    if single:
        Ed, Ad, Fd = Ed[None], Ad[None], Fd[None]
    k, n = Ed.shape[:2]
    if Ed.shape != (k, n, n) or Ad.shape != Ed.shape or Fd.shape != Ed.shape:
        raise ValueError("E, A, F must be square and equally sized")

    def refuse(j, reason):
        raise ValueError(reason if single else f"node {j}: {reason}")

    asym = np.linalg.norm(Fd - Fd.transpose(0, 2, 1), axis=(1, 2))
    bad = asym > 1e-10 * np.maximum(np.linalg.norm(Fd, axis=(1, 2)), 1e-300)
    if bad.any():
        refuse(np.argmax(bad), "F must be symmetric")
    # raw getrf, not lu_factor, so a zero pivot emits no LinAlgWarning; the
    # diagonal test rejects it together with near-zero pivots
    getrf = sla.get_lapack_funcs("getrf", (Ed[0],))
    for j, Ej in enumerate(Ed):
        diag = np.abs(np.diag(getrf(Ej)[0]))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            refuse(j, "E is numerically singular")
    # reduce to ordinary Lyapunov equations in At = A E^-1; the right-hand
    # sides are (k, n, n) like E, since numpy 1 and 2 read a right-hand side
    # of one dimension less differently
    Et = Ed.transpose(0, 2, 1)
    At_T = np.linalg.solve(Et, Ad.transpose(0, 2, 1))
    Ft = np.linalg.solve(Et, np.linalg.solve(Et, Fd.transpose(0, 2, 1)).transpose(0, 2, 1))
    trsyl = sla.get_lapack_funcs("trsyl", (At_T[0],))
    M = np.empty_like(At_T)
    for j, (X, Fj) in enumerate(zip(At_T, Ft)):
        T, Z = sla.schur(X, output="real")
        abscissa = float(np.diag(T).max())
        if abscissa >= 0:
            refuse(j, f"pencil is not asymptotically stable (abscissa {abscissa:.3e})")
        Y, scale, info = trsyl(T, T, Z.T @ (-Fj @ Z), tranb="T")
        if info != 0:
            refuse(j, f"Lyapunov solve failed (trsyl info {info})")
        Y *= scale
        Mj = Z @ Y @ Z.T
        M[j] = 0.5 * (Mj + Mj.T)
    return M[0] if single else M


def freq_projection(E, A, F, V, rule: FrequencyRule) -> np.ndarray:
    """W = M E V by frequency-domain quadrature, without forming M.

    Each node contributes Re[(i w E - A)^-H F (i w E - A)^-1 E V]; one LU
    factorization per node serves both the forward and the conjugate
    transposed solve, and a sparse pencil is ordered once, at the first
    node.  The pencil (E, A) must be asymptotically stable with nonsingular
    E for the integral to equal the Lyapunov solution.
    """
    n = E.shape[0]
    V = _as_columns(V, n, "V")
    solver = _pencil(E, A)
    EV = E @ V

    def term(solve):
        return solve(F @ solve(EV), adjoint=True).real

    W = np.zeros((n, V.shape[1]))
    for om, weight in zip(*rule.half()):
        # one call per node frees its factorization before the next is made
        W += weight * term(solver(1j * om))
    return W / (2.0 * np.pi)

