"""Orthonormal polynomial chaos bases and the quadrature rules that feed them.

Supports independent uniform and Gaussian parameters.  Univariate families are
normalized Legendre (uniform) and normalized probabilists' Hermite (Gaussian);
multivariate basis polynomials are products over a total-degree index set.
Moment matrices G_l = E[mu_l Phi_i Phi_j] are assembled from univariate Gauss
integrals, which keeps the cost independent of the parameter count.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

# Hard cap on full tensor-grid sizes; beyond this the caller is expected to
# switch to Monte Carlo nodes.
TENSOR_NODE_CAP = 10 ** 6


@dataclass(frozen=True)
class Distribution:
    """Univariate parameter distribution, uniform(a, b) or gaussian(mean, stddev).

    Stores the raw parameters; standardized coordinates (uniform on [-1, 1],
    standard normal) are exposed through shift/scale so every polynomial
    evaluation happens in the standardized variable.
    """

    kind: str
    params: tuple

    @staticmethod
    def uniform(a: float, b: float) -> "Distribution":
        if not b > a:
            raise ValueError("uniform distribution needs b > a")
        return Distribution("uniform", (float(a), float(b)))

    @staticmethod
    def gaussian(mean: float, stddev: float) -> "Distribution":
        if not stddev > 0:
            raise ValueError("gaussian distribution needs stddev > 0")
        return Distribution("gaussian", (float(mean), float(stddev)))

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if len(self.params) != 2:
            raise ValueError("expected exactly two distribution parameters")

    @property
    def shift(self) -> float:
        a, b = self.params
        return 0.5 * (a + b) if self.kind == "uniform" else a

    @property
    def scale(self) -> float:
        a, b = self.params
        return 0.5 * (b - a) if self.kind == "uniform" else b

    @property
    def mean(self) -> float:
        return self.shift

    def standardize(self, x):
        return (np.asarray(x, dtype=float) - self.shift) / self.scale

    def unstandardize(self, xi):
        return self.shift + self.scale * np.asarray(xi, dtype=float)

    def gauss_points(self, k: int):
        """Standardized Gauss nodes and probability weights (sum to one)."""
        if k < 1:
            raise ValueError("need at least one quadrature node")
        if self.kind == "uniform":
            xi, w = leggauss(k)
            return xi, w / 2.0
        xi, w = hermegauss(k)
        return xi, w / np.sqrt(2.0 * np.pi)

    def sample(self, rng: np.random.Generator, size):
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size)
        mean, std = self.params
        return rng.normal(mean, std, size)


def basis_count(q: int, degree: int) -> int:
    """Number of multivariate basis polynomials: (degree + q)! / (degree! q!)."""
    if q < 1:
        raise ValueError("need at least one parameter")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return math.comb(degree + q, q)


def _graded_indices(q: int, degree: int):
    """All exponent tuples with total degree <= degree, graded lexicographic."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == q:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree)
    out.sort(key=lambda e: (sum(e), e))
    return tuple(out)


def _orthonormal_1d(dist: Distribution, xi, degree: int) -> np.ndarray:
    """Values of the orthonormal univariate family at standardized points.

    Returns an array of shape (degree + 1,) + xi.shape; row k holds psi_k.
    Legendre polynomials are scaled by sqrt(2k + 1), probabilists' Hermite
    by 1 / sqrt(k!).
    """
    xi = np.asarray(xi, dtype=float)
    vals = np.zeros((degree + 1,) + xi.shape)
    vals[0] = 1.0
    if degree == 0:
        return vals
    if dist.kind == "uniform":
        p_prev = np.ones_like(xi)
        p_cur = xi.copy()
        vals[1] = np.sqrt(3.0) * p_cur
        for k in range(1, degree):
            p_next = ((2 * k + 1) * xi * p_cur - k * p_prev) / (k + 1)
            vals[k + 1] = np.sqrt(2 * (k + 1) + 1.0) * p_next
            p_prev, p_cur = p_cur, p_next
    else:
        h_prev = np.ones_like(xi)
        h_cur = xi.copy()
        vals[1] = h_cur
        factorial = 1.0
        for k in range(1, degree):
            h_next = xi * h_cur - k * h_prev
            factorial *= k + 1
            vals[k + 1] = h_next / np.sqrt(factorial)
            h_prev, h_cur = h_cur, h_next
    return vals


@dataclass(frozen=True, eq=False)
class PCBasis:
    """Orthonormal multivariate basis over independent parameters.

    Attributes
    ----------
    dists : tuple of Distribution
        One distribution per parameter, length q.
    degree : int
        Total-degree bound of the index set.
    indices : tuple of tuple of int
        Exponent tuples in graded lexicographic order; the all-zero tuple
        (the constant polynomial) comes first.
    """

    dists: tuple
    degree: int
    indices: tuple

    @property
    def q(self) -> int:
        return len(self.dists)

    @property
    def m(self) -> int:
        return len(self.indices)


def build_basis(dists, degree: int) -> PCBasis:
    """Construct the total-degree orthonormal basis for the given parameters."""
    dists = tuple(dists)
    if not dists:
        raise ValueError("need at least one parameter distribution")
    for d in dists:
        if not isinstance(d, Distribution):
            raise TypeError("dists must contain Distribution instances")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    indices = _graded_indices(len(dists), degree)
    return PCBasis(dists=dists, degree=degree, indices=indices)


def eval_basis(basis: PCBasis, mu) -> np.ndarray:
    """Basis values s(mu): shape (m,) at one point, (k, m) at k points (k, q).

    The univariate factors are multiplied in the same order for a batch as
    for a single point, so every row of a batch equals the single-point
    vector bit for bit.
    """
    mu = np.asarray(mu, dtype=float)
    points = np.atleast_2d(mu)
    if mu.ndim > 2 or points.shape[1] != basis.q:
        raise ValueError(f"expected parameter vectors of length {basis.q}")
    per_dim = [
        _orthonormal_1d(dist, dist.standardize(points[:, j]), basis.degree)
        for j, dist in enumerate(basis.dists)
    ]
    S = np.empty((points.shape[0], basis.m))
    for pos, idx in enumerate(basis.indices):
        v = np.ones(points.shape[0])
        for j, e in enumerate(idx):
            v *= per_dim[j][e]
        S[:, pos] = v
    return S if mu.ndim == 2 else S[0]


def _univariate_moment_table(dist: Distribution, degree: int) -> np.ndarray:
    """Table J[a, b] = E[mu psi_a(mu) psi_b(mu)] for one parameter.

    The integrand has polynomial degree at most 2 * degree + 1, so a Gauss
    rule with degree + 2 nodes (exact through degree 2 * degree + 3) is used.
    Orthogonality makes J tridiagonal: entries off the three central
    diagonals are zero up to rounding, and moment_matrix reads only the
    central three.
    """
    xi, w = dist.gauss_points(degree + 2)
    psi = _orthonormal_1d(dist, xi, degree)
    x_phys = dist.unstandardize(xi)
    return np.einsum("k,ak,bk->ab", w * x_phys, psi, psi)


def moment_matrix(basis: PCBasis, l: int):
    """Sparse moment matrix G_l with entries E[mu_l Phi_i Phi_j].

    G_0 is the identity (the constant weight 1).  For l >= 1 an entry is
    nonzero only when the two multi-indices coincide in every coordinate
    except l, where they may differ by at most one; its value is the
    univariate integral E[mu_l psi_a psi_b] of the matching 1-d degrees.
    """
    if not 0 <= l <= basis.q:
        raise ValueError(f"moment index must be in 0..{basis.q}")
    m = basis.m
    if l == 0:
        return sp.identity(m, format="csr")
    dim = l - 1
    J = _univariate_moment_table(basis.dists[dim], basis.degree)
    lookup = {idx: pos for pos, idx in enumerate(basis.indices)}
    rows, cols, vals = [], [], []
    for i, idx in enumerate(basis.indices):
        a = idx[dim]
        for b in range(max(0, a - 1), min(basis.degree, a + 1) + 1):
            other = list(idx)
            other[dim] = b
            j = lookup.get(tuple(other))
            if j is None:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(J[a, b])
    G = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
    return G


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes (k x q, physical coordinates) and strictly positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.size:
            raise ValueError("nodes must be (k, q) with k matching weights")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def k(self) -> int:
        return self.weights.size


def tensor_rule(dists, nodes_per_dim: int) -> QuadratureRule:
    """Full tensor Gauss rule in physical coordinates.

    Refuses to build grids larger than TENSOR_NODE_CAP nodes; use
    monte_carlo_rule for high-dimensional parameter spaces instead.
    """
    dists = tuple(dists)
    q = len(dists)
    if q < 1:
        raise ValueError("need at least one distribution")
    if nodes_per_dim < 1:
        raise ValueError("nodes_per_dim must be positive")
    total = nodes_per_dim ** q
    if total > TENSOR_NODE_CAP:
        raise ValueError(
            f"tensor grid with {total} nodes exceeds the cap of {TENSOR_NODE_CAP}; "
            "use monte_carlo_rule for this many parameters"
        )
    axes, wts = [], []
    for dist in dists:
        xi, w = dist.gauss_points(nodes_per_dim)
        axes.append(dist.unstandardize(xi))
        wts.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*wts, indexing="ij")
    weights = np.ones(total)
    for wg in wgrids:
        weights = weights * wg.reshape(-1)
    return QuadratureRule(nodes=nodes, weights=weights)


def monte_carlo_rule(dists, k: int, seed=None) -> QuadratureRule:
    """k independent samples with equal weights 1 / k."""
    dists = tuple(dists)
    if k < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    cols = [dist.sample(rng, k) for dist in dists]
    nodes = np.column_stack(cols)
    weights = np.full(k, 1.0 / k)
    return QuadratureRule(nodes=nodes, weights=weights)
