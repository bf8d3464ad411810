"""Generalized Lyapunov equations and frequency-domain projected solutions.

Solves A^T M E + E^T M A + F = 0 for stable pencils with nonsingular E.
Besides the dense direct solve there is a quadrature variant for F = I that
never forms M: from the integral representation
M = (1/2pi) int (i w E - A)^-H (i w E - A)^-1 dw it computes the projected
pencil V^T E^T M (E V, A V) and V^T E^T M X directly, which is what
technique i's stabilized reduced models are.
"""

import numpy as np
import scipy.linalg as sla

from .frequency import FrequencyRule
# pencil_spectrum is unused here; perfbench/tracer.py wraps it by this attribute
from .systems import _as_columns, _as_dense, _pencil, _singular, pencil_spectrum  # noqa: F401

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


def freq_projection(E, A, V, rule: FrequencyRule, X):
    """(V^T E^T M E V, V^T E^T M A V, V^T E^T M X) by frequency-domain
    quadrature, without forming M or M E V, for the M that solves
    A^T M E + E^T M A + I = 0.

    At each node K = i w E - A is factored once and solved forward once,
    Y = K^-1 [E V, X] with r + k right-hand sides (V is n x r, X n x k).
    Since A = i w E - K, K^-1 A V = i w Y_V - V, so the node's terms are
    Re Y_V^H Y_V, Re Y_V^H (i w Y_V - V) and Re Y_V^H Y_X.  The nodes are
    the shifts of the pencil's solve_shifts loop (_pencil), which yields
    each Y in the pencil's row order: for a sparse pencil SuperLU's own
    column-major solution, and for one in second-order form (MSD's) a
    column-major block of the positions SuperLU solved for, at half the
    dimension, over the velocities formed from them.  Y_V^H Y does not
    depend on the row order.  It is one zgemm reading Y in place
    (trans_a=2), on one thread in a pipeline call (systems._blas_serial);
    NumPy's Y_V.conj().T @ Y would first copy Y_V conjugated, one more
    n x r block per node.  A non-finite product names the node's shift.
    The part Re Y_V^H V = Re(Y_V)^T V is linear in
    Y_V, so a daxpy adds Re Y_V in place into one n x r sum, in the same row
    order, which meets V, permuted alike, once at the end.  A node thus
    makes no n x r block of its own besides the solver's solution.  The first result is
    symmetrized, so it is exactly symmetric; with X = I the third is W^T
    for W = M E V.  The pencil (E, A) must be asymptotically stable with
    nonsingular E for the integral to equal the Lyapunov solution.
    """
    n = E.shape[0]
    V = _as_columns(V, n, "V")
    X = _as_columns(_as_dense(X), n, "X")
    r = V.shape[1]
    solver = _pencil(E, A)
    omegas, weights = rule.half()
    solutions = solver.solve_shifts(1j * omegas, np.hstack([np.asarray(E @ V), X]))
    zgemm = sla.get_blas_funcs("gemm", dtype=complex)
    daxpy = sla.get_blas_funcs("axpy", dtype=float)
    G_sum = np.zeros((r, r + X.shape[1]), complex)
    G_moment = np.zeros((r, r))
    Y_sum = np.zeros(n * r)  # Re Y_V summed, column by column

    for om, weight in zip(omegas, weights):
        Y = np.asfortranarray(next(solutions), dtype=complex)
        G = zgemm(1.0, Y[:, :r], Y, trans_a=2)
        if not np.all(np.isfinite(G)):
            raise ValueError(_singular(1j * om))
        G_sum += weight * G
        G_moment += (weight * om) * G[:, :r].imag
        # Re Y_V is every second double of Y_V's column-major storage
        daxpy(Y.reshape(-1, order="F")[:n * r].view(float), Y_sum,
              n=n * r, a=weight, incx=2)
        del Y  # the next node's solution is made without this one
    rows = slice(None) if solver.rows is None else solver.rows
    YV = sla.get_blas_funcs("gemm", dtype=float)(
        1.0, Y_sum.reshape(n, r, order="F"), V[rows], trans_a=1)
    scale = 1.0 / (2.0 * np.pi)
    E_r = G_sum[:, :r].real
    return (scale * 0.5 * (E_r + E_r.T), -scale * (G_moment + YV),
            scale * G_sum[:, r:].real)
