"""Stability-preserving transformations for projected stochastic systems.

A dissipative descriptor system (E symmetric positive definite, A + A^T
negative definite) stays asymptotically stable under any one-sided projection
with full-rank V.  None of the benchmark systems are dissipative as built, so
three transformations manufacture that structure:

  technique i    project with the left factor M E V, M the Lyapunov
                 solution of the projected system; the reduced matrices
                 come from a frequency-domain quadrature that forms neither
                 M nor the factor;
  technique ii   transform every parameter realization by its own Lyapunov
                 solution and re-project with positive-weight quadrature,
                 kept as a node-sum operator and solved by GMRES;
  technique iii  reuse a single Lyapunov solution at a reference parameter
                 blockwise, which is exact for the constant family and
                 degrades continuously as the parameter spread grows.

Also here: the two-parameter regularization that turns an index-1
differential-algebraic system into a nearby ordinary one.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .frequency import FrequencyRule
from .galerkin import assemble_output, assemble_via_quadrature
from .lyapunov import freq_projection, solve_lyap_direct
from .mor import reduce
from .pce import PCBasis, QuadratureRule
from .systems import AffineParamSystem, LTISystem, _affine_sum, _as_columns, eval_at

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
    """Apply regularize to every affine term of the family.

    The shift acts term by term, so regularizing the family and evaluating
    at mu equals evaluating first and regularizing then; the same holds for
    the spectral projection.  A term that touches only one of E and A is
    regularized with a zero in place of the other; one that touches neither
    stays None.
    """
    E0, A0 = regularize(aps.E0, aps.A0, beta)
    E_parts, A_parts = [], []
    for e, a in zip(aps.E_parts, aps.A_parts):
        if e is not None or a is not None:
            e, a = regularize(0 * a if e is None else e, 0 * e if a is None else a, beta)
        E_parts.append(e)
        A_parts.append(a)
    return AffineParamSystem(
        E0=E0, A0=A0, B0=aps.B0, C0=aps.C0,
        E_parts=tuple(E_parts), A_parts=tuple(A_parts),
        B_parts=aps.B_parts, C_parts=aps.C_parts,
        dists=aps.dists,
    )


@dataclass(eq=False)
class StabilizationOutcome:
    """Reduced system of one run's technique ("none", "i", "ii" or "iii").

    reduced has the full order of the Krylov basis; its leading blocks are
    the reductions onto the basis's leading columns.  diagnostics holds the
    technique's own figures (empty for "none").
    """

    technique: str
    reduced: LTISystem
    diagnostics: dict = field(default_factory=dict)


def technique_i(fom: LTISystem, V, rule: FrequencyRule) -> StabilizationOutcome:
    """The reduced system V^T E^T M (E V, A V, B) with output C V.

    M solves A^T M E + E^T M A + I = 0 for the pencil of the projected
    system fom, which must be asymptotically stable.  The reduction is the
    Petrov-Galerkin one with left factor W = M E V, but W is never formed:
    freq_projection makes the reduced matrices by frequency-domain
    quadrature on rule, with one sparse factorization and one forward solve
    of r + n_in right-hand sides per node.  The reduced system has the
    order r of V; its leading blocks are the reductions onto V's leading
    columns.
    """
    V = _as_columns(V, fom.n, "V")
    # rule by keyword: perfbench/tracer.py reads it there to count the nodes
    E_r, A_r, B_r = freq_projection(fom.E, fom.A, V, rule=rule, X=fom.B)
    reduced = LTISystem(E=E_r, A=A_r, B=B_r, C=np.asarray(fom.C @ V))
    return StabilizationOutcome(
        technique="i", reduced=reduced,
        diagnostics={"nodes": rule.n_nodes, "omega_scale": rule.omega_scale})


def technique_ii(aps: AffineParamSystem, basis: PCBasis,
                 quad: QuadratureRule) -> LTISystem:
    """The re-assembled projected system: a per-realization Lyapunov
    transform followed by quadrature projection.

    At every node mu_k the matrices are replaced by E^T M E, E^T M A, E^T M B
    with M = M(mu_k) solving the local Lyapunov equation
    A^T M E + E^T M A + I = 0; the transformed realization is dissipative by
    construction, and any positive-weight quadrature sum of dissipative
    realizations stays dissipative.  That needs
    two conditions on the quadrature: positive weights, and a positive
    definite chaos Gram matrix sum_k w_k s(mu_k) s(mu_k)^T, which takes at
    least m = basis.m nodes; assemble_via_quadrature raises ValueError when
    either fails.  All nodes go through at once: _affine_sum realizes E, A
    and B at the k nodes as stacks, one stacked solve_lyap_direct gives the
    k solutions M (its ValueError names the first node whose E is singular
    or whose pencil is unstable), and the transformed matrices are stacked
    products.  The output matrix is untouched by the transform, so the
    exact projected C is attached.  The transformed E and A are
    NodeKronSum operators over the quadrature nodes; arnoldi's shifted
    solves on them run preconditioned GMRES, and reduce multiplies them
    into the basis without forming them.
    """

    def transformed_matrices(nodes):
        E = _affine_sum(aps.E0, aps.E_parts, nodes)
        A = _affine_sum(aps.A0, aps.A_parts, nodes)
        B = _affine_sum(aps.B0, aps.B_parts, nodes)
        M = solve_lyap_direct(E, A, np.broadcast_to(np.eye(aps.n), E.shape))
        EtM = E.transpose(0, 2, 1) @ M
        return EtM @ A, EtM @ B, EtM @ E

    return assemble_via_quadrature(transformed_matrices, basis, quad,
                                   C=assemble_output(aps, basis))


def _block_count(fom: LTISystem, n: int) -> int:
    """Number m of chaos blocks of state dimension n in the projected fom."""
    m, rest = divmod(fom.n, n)
    if rest:
        raise ValueError(f"projected dimension {fom.n} is not a multiple of "
                         f"the family's state dimension {n}")
    return m


def _m_star(aps: AffineParamSystem, F=None) -> np.ndarray:
    """M* solving the Lyapunov equation, F = I unless given, of aps's
    realization at the parameter means."""
    sys_star = eval_at(aps, aps.nominal())
    return solve_lyap_direct(sys_star.E, sys_star.A, np.eye(aps.n) if F is None else F)


def technique_iii(fom: LTISystem, aps: AffineParamSystem, V) -> LTISystem:
    """The reduced system W^T (E V, A V, B) with output C V, for the
    blockwise left factor W of one Lyapunov solution at a reference point.

    fom is the projection of aps; its m = fom.n / aps.n chaos blocks share
    M*.  W = (I (x) M*) E V with M* solving the Lyapunov equation, F = I,
    of the realization at the parameter means.  The reduced system has the
    order r of V; its leading blocks are the reductions onto V's leading
    columns.  The certificate, _technique_iii_margin(fom, aps), does not
    depend on V, so it is computed apart from the reduction:
    bench.stabilized_basis reports it once per projected system.
    """
    n = aps.n
    m = _block_count(fom, n)
    M_star = _m_star(aps)
    V = _as_columns(V, fom.n, "V")
    r = V.shape[1]
    blocks = np.asarray(fom.E @ V).reshape(m, n, r)
    W = np.matmul(M_star, blocks).reshape(fom.n, r)
    return reduce(fom, V, W)


def _technique_iii_margin(fom: LTISystem, aps: AffineParamSystem, F=None) -> float:
    """Technique iii's margin lambda_max(E^T (I (x) M*) A + transpose) for
    M* of the Lyapunov equation with right-hand side F, I unless given;
    with F = I it is the M* of technique_iii(fom, aps, V), and a negative
    margin certifies that every reduction from (W, V) is stable, for
    every V.

    Neither I (x) M* nor the product is formed: ARPACK applies
    x -> E^T (I (x) M*) A x + A^T (I (x) M*) E x, with I (x) M* applied to
    the m chaos blocks of a vector at once, as its (m, n) reshape times
    the symmetric M*."""
    n = aps.n
    m = _block_count(fom, n)
    M_star = _m_star(aps, F)
    E, A = sp.csr_matrix(fom.E), sp.csr_matrix(fom.A)

    def blockwise(y):
        return (y.reshape(m, n) @ M_star).reshape(-1)

    def matvec(x):
        x = x.reshape(-1)
        return E.T @ blockwise(A @ x) + A.T @ blockwise(E @ x)

    if fom.n == 1:  # ARPACK needs k < n
        return float(matvec(np.ones(1))[0])
    S = spla.LinearOperator((fom.n, fom.n), matvec=matvec, dtype=float)
    # a fixed start vector makes ARPACK, and so the margin, reproducible
    val = spla.eigsh(S, k=1, which="LA", v0=np.ones(fom.n),
                     return_eigenvectors=False)
    return float(val[0])
