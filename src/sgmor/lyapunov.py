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
from .systems import _as_dense, _pencil, pencil_spectrum, shifted_solver  # noqa: F401

__all__ = ["solve_lyap_direct", "freq_projection", "lyap_residual"]


def solve_lyap_direct(E, A, F) -> np.ndarray:
    """Dense solve of A^T M E + E^T M A + F = 0; returns symmetric M.

    Requires E nonsingular and the pencil (E, A) asymptotically stable.  One
    real Schur form T = Z^T (A E^-1)^T Z serves both: its diagonal carries
    the real parts of the pencil eigenvalues (a complex pair's 2x2 block has
    its real part on both diagonal entries), and the Bartels-Stewart step
    solves T Y + Y T^T = Z^T (-E^-T F E^-1) Z with LAPACK trsyl.  With F
    symmetric positive definite the solution M is symmetric positive
    definite as well.
    """
    Ed, Ad, Fd = _as_dense(E), _as_dense(A), _as_dense(F)
    n = Ed.shape[0]
    if Ed.shape != (n, n) or Ad.shape != (n, n) or Fd.shape != (n, n):
        raise ValueError("E, A, F must be square and equally sized")
    if np.linalg.norm(Fd - Fd.T) > 1e-10 * max(np.linalg.norm(Fd), 1e-300):
        raise ValueError("F must be symmetric")
    # raw getrf, not lu_factor, so a zero pivot emits no LinAlgWarning; the
    # diagonal test below rejects it together with near-zero pivots
    getrf = sla.get_lapack_funcs("getrf", (Ed,))
    lu, piv, _ = getrf(Ed)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
        raise ValueError("E is numerically singular")
    # reduce to an ordinary Lyapunov equation in At = A E^-1
    At = sla.lu_solve((lu, piv), Ad.T, trans=1).T
    T, Z = sla.schur(At.T, output="real")
    abscissa = float(np.diag(T).max())
    if abscissa >= 0:
        raise ValueError(
            f"pencil is not asymptotically stable (abscissa {abscissa:.3e})")
    Ft = sla.lu_solve((lu, piv), sla.lu_solve((lu, piv), Fd.T, trans=1).T, trans=1)
    trsyl = sla.get_lapack_funcs("trsyl", (T,))
    Y, scale, info = trsyl(T, T, Z.T @ (-Ft @ Z), tranb="T")
    if info != 0:
        raise ValueError(f"Lyapunov solve failed (trsyl info {info})")
    Y *= scale
    M = Z @ Y @ Z.T
    return 0.5 * (M + M.T)


def freq_projection(E, A, F, V, rule: FrequencyRule) -> np.ndarray:
    """W = M E V by frequency-domain quadrature, without forming M.

    Each node contributes Re[(i w E - A)^-H F (i w E - A)^-1 E V]; one LU
    factorization per node serves both the forward and the conjugate
    transposed solve.  The pencil (E, A) must be asymptotically stable with
    nonsingular E for the integral to equal the Lyapunov solution.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] == 1 and E.shape[0] != 1:
        V = V.T
    n = E.shape[0]
    if V.shape[0] != n:
        raise ValueError("V must have as many rows as E")
    E, A = _pencil(E, A)
    EV = E @ V
    omegas, weights = rule.half()
    W = np.zeros((n, V.shape[1]))
    for j, om in enumerate(omegas):
        solve = shifted_solver(E, A, 1j * om)
        Y = solve(F @ solve(EV), adjoint=True)
        W += weights[j] * Y.real
    return W / (2.0 * np.pi)


def lyap_residual(E, A, F, M) -> float:
    """Relative residual ||A^T M E + E^T M A + F||_F / ||F||_F."""
    Ed, Ad, Fd, Md = _as_dense(E), _as_dense(A), _as_dense(F), _as_dense(M)
    R = Ad.T @ Md @ Ed + Ed.T @ Md @ Ad + Fd
    nF = np.linalg.norm(Fd)
    if nF == 0.0:
        raise ValueError("F must be nonzero")
    return float(np.linalg.norm(R) / nF)
