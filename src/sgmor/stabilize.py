"""Stability-preserving transformations for projected stochastic systems.

A dissipative descriptor system (E symmetric positive definite, A + A^T
negative definite) stays asymptotically stable under any one-sided projection
with full-rank V.  None of the benchmark systems are dissipative as built, so
three transformations manufacture that structure:

  technique i    multiply the projection basis by the Lyapunov solution of
                 the projected system, computed matrix-free in the frequency
                 domain;
  technique ii   transform every parameter realization by its own Lyapunov
                 solution and re-project with positive-weight quadrature;
  technique iii  reuse a single Lyapunov solution at a reference parameter
                 blockwise, which is exact for the constant family and
                 degrades continuously as the parameter spread grows.

Also here: the two-parameter regularization that turns an index-1
differential-algebraic system into a nearby ordinary one.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .frequency import FrequencyRule
from .galerkin import assemble, assemble_output, assemble_via_quadrature
from .lyapunov import freq_projection, solve_lyap_direct
from .pce import PCBasis, QuadratureRule
from .systems import AffineParamSystem, LTISystem, _affine_sum, _as_dense, eval_at

DEFAULT_BETA = 1e-5


def regularize(E, A, beta: float = DEFAULT_BETA):
    """Replace (E, A) by (E - alpha A, A + beta E) with alpha = beta^2.

    For an index-1 pencil this removes the infinite eigenvalues while moving
    the finite ones only O(beta); the perturbed system is an ordinary
    differential equation whenever E - alpha A is nonsingular.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    alpha = beta ** 2
    E_reg = E - alpha * A
    A_reg = A + beta * E
    return E_reg, A_reg


def regularize_affine(aps: AffineParamSystem, beta: float = DEFAULT_BETA) -> AffineParamSystem:
    """Apply the regularization to every affine term of the family.

    The shift acts term by term, so regularizing the family and evaluating
    at mu equals evaluating first and regularizing then; the same holds for
    the spectral projection.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    alpha = beta ** 2

    def combo(X, Y, c):
        # X + c * Y with None meaning zero
        if Y is None:
            return None if X is None else X.copy()
        if X is None:
            return c * Y
        return X + c * Y

    E0 = aps.E0 - alpha * aps.A0
    A0 = aps.A0 + beta * aps.E0
    E_parts = tuple(combo(e, a, -alpha) for e, a in zip(aps.E_parts, aps.A_parts))
    A_parts = tuple(combo(a, e, beta) for a, e in zip(aps.A_parts, aps.E_parts))
    return AffineParamSystem(
        E0=E0, A0=A0, B0=aps.B0, C0=aps.C0,
        E_parts=E_parts, A_parts=A_parts,
        B_parts=aps.B_parts, C_parts=aps.C_parts,
        dists=aps.dists,
    )


@dataclass(eq=False)
class StabilizationOutcome:
    """Result of one stabilizing transformation.

    Exactly one of W (a replacement left-projection factor) and transformed
    (a re-assembled projected system) is set, depending on the technique.
    """

    technique: str
    W: np.ndarray | None = None
    transformed: LTISystem | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.W is None) == (self.transformed is None):
            raise ValueError("exactly one of W and transformed must be set")


def technique_i(fom: LTISystem, V, rule: FrequencyRule) -> StabilizationOutcome:
    """Left factor W = M E V from the projected system's Lyapunov solution.

    M solves A^T M E + E^T M A + I = 0 for the pencil of the projected
    system fom, which must be asymptotically stable.  W is computed by
    frequency-domain quadrature on rule with one sparse factorization per
    node and is returned unnormalized.
    """
    F = sp.identity(fom.n, format="csr")
    W = freq_projection(fom.E, fom.A, F, V, rule)
    return StabilizationOutcome(
        technique="i", W=W,
        diagnostics={"nodes": rule.n_nodes, "omega_scale": rule.omega_scale})


def technique_ii(aps: AffineParamSystem, basis: PCBasis,
                 quad: QuadratureRule) -> StabilizationOutcome:
    """Per-realization Lyapunov transform followed by quadrature projection.

    At every node mu_k the matrices are replaced by E^T M E, E^T M A, E^T M B
    with M = M(mu_k) solving the local Lyapunov equation
    A^T M E + E^T M A + I = 0; the transformed realization is dissipative by
    construction, and any positive-weight quadrature sum of dissipative
    realizations stays dissipative.  That needs
    two conditions on the quadrature: positive weights, and a positive
    definite chaos Gram matrix sum_k w_k s(mu_k) s(mu_k)^T, which takes at
    least m = basis.m nodes; assemble_via_quadrature raises ValueError when
    either fails.  The output matrix is untouched by the transform, so the
    exact projected C is attached.
    """
    F = np.eye(aps.n)

    def transformed_matrices(mu):
        sys_mu = eval_at(aps, mu)
        M = solve_lyap_direct(sys_mu.E, sys_mu.A, F)
        Ed, Ad, Bd = _as_dense(sys_mu.E), _as_dense(sys_mu.A), _as_dense(sys_mu.B)
        EtM = Ed.T @ M
        return EtM @ Ad, EtM @ Bd, EtM @ Ed

    transformed = assemble_via_quadrature(transformed_matrices, basis, quad,
                                          C=assemble_output(aps, basis))
    return StabilizationOutcome(technique="ii", transformed=transformed,
                                diagnostics={"nodes": quad.k})


def _block_count(fom: LTISystem, n: int) -> int:
    """Number m of chaos blocks of state dimension n in the projected fom."""
    m, rest = divmod(fom.n, n)
    if rest:
        raise ValueError(f"projected dimension {fom.n} is not a multiple of "
                         f"the family's state dimension {n}")
    return m


def technique_iii(fom: LTISystem, aps: AffineParamSystem, V, F=None) -> StabilizationOutcome:
    """Blockwise left factor from one Lyapunov solution at a reference point.

    fom is the projection of aps; its m = fom.n / aps.n chaos blocks share
    M*.  W = (I (x) M*) E V with M* solving the Lyapunov equation, F = I
    unless given, of the realization at the parameter means mu_star.  The
    diagnostics report mu_star and the margin lambda_max(E^T (I (x) M*) A
    + transpose); a negative margin certifies that every reduction from
    (W, V) is stable.
    """
    mu_star = aps.nominal()
    n = aps.n
    m = _block_count(fom, n)
    if F is None:
        F = np.eye(n)
    sys_star = eval_at(aps, mu_star)
    M_star = solve_lyap_direct(sys_star.E, sys_star.A, F)

    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] == 1 and fom.n != 1:
        V = V.T
    if V.shape[0] != fom.n:
        raise ValueError("V must have as many rows as the projected system")
    EV = np.asarray(fom.E @ V)
    r = V.shape[1]
    blocks = EV.reshape(m, n, r)
    W = np.einsum("ij,bjr->bir", M_star, blocks).reshape(fom.n, r)

    margin = _technique_iii_margin(fom, M_star)
    return StabilizationOutcome(
        technique="iii", W=W,
        diagnostics={"margin": margin, "mu_star": mu_star.tolist()})


def _technique_iii_margin(fom: LTISystem, M_star: np.ndarray) -> float:
    """Largest eigenvalue of E^T (I (x) M*) A + (E^T (I (x) M*) A)^T."""
    m = _block_count(fom, M_star.shape[0])
    M_big = sp.kron(sp.identity(m, format="csr"),
                    sp.csr_matrix(M_star), format="csr")
    E_s = sp.csr_matrix(fom.E)
    A_s = sp.csr_matrix(fom.A)
    T = (E_s.T @ M_big) @ A_s
    S = (T + T.T).tocsc()
    if fom.n < 2000:
        return float(sla.eigvalsh(S.toarray())[-1])
    # a fixed start vector makes ARPACK, and so the margin, reproducible
    val = spla.eigsh(S, k=1, which="LA", v0=np.ones(fom.n),
                     return_eigenvectors=False)
    return float(val[0])


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


@dataclass(frozen=True)
class CommutationReport:
    equal: bool
    max_diff_E: float
    max_diff_A: float
    tol: float


def regularization_commutes(aps: AffineParamSystem, basis: PCBasis,
                            beta: float = DEFAULT_BETA, beta_other: float | None = None,
                            tol: float = 1e-12) -> CommutationReport:
    """Compare regularize-then-project against project-then-regularize.

    Both paths must agree to machine precision when the same beta is used;
    beta_other deliberately desynchronizes the second path for negative
    controls.  The comparison is entrywise on the projected E and A, scaled
    by the larger matrix norm.
    """
    gal_first = assemble(regularize_affine(aps, beta), basis)
    gal_plain = assemble(aps, basis)
    b2 = beta if beta_other is None else beta_other
    E2, A2 = regularize(gal_plain.E, gal_plain.A, b2)

    def rel_max_diff(X, Y):
        return abs(X - Y).max() / max(abs(X).max(), abs(Y).max(), 1e-300)

    dE = rel_max_diff(gal_first.E, E2)
    dA = rel_max_diff(gal_first.A, A2)
    return CommutationReport(equal=bool(dE <= tol and dA <= tol),
                             max_diff_E=float(dE), max_diff_A=float(dA), tol=tol)

