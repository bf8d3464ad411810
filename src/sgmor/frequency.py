"""Quadrature rules for integrals over the imaginary axis.

Every frequency-domain quantity of the pipeline (the H2 norm and error,
technique i's Lyapunov solution) is (1/2pi) int f(omega) d omega over the
real line with f even.  A FrequencyRule holds that integral folded onto
omega >= 0 as nodes and weights: int f d omega ~ sum_j weights_j f(omega_j).
FrequencyRule.gauss maps Gauss-Legendre nodes in theta on (-pi/2, pi/2) by
omega = omega_scale * tan(theta); its weights carry the Jacobian
omega_scale * (1 + tan(theta)^2) and the mirror nodes.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

# Adaptive defaults shared by the H2 routines.
DEFAULT_NODES = 200
MAX_NODES = 1600
CONVERGENCE_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class FrequencyRule:
    """Nodes and weights of an even integrand's integral over omega >= 0.

    Attributes
    ----------
    omegas : ndarray
        Nonnegative frequency nodes, ascending.
    weights : ndarray
        Positive weights, each with its mirror node -omega_j folded in.
    omega_scale : float
        Frequency scale the rule resolves best.  One by default; systems
        whose dynamics live near |omega| = w are integrated more accurately
        with omega_scale close to w.
    """

    omegas: np.ndarray
    weights: np.ndarray
    omega_scale: float = 1.0

    def __post_init__(self):
        if not self.omega_scale > 0:
            raise ValueError("omega_scale must be positive")
        om = np.asarray(self.omegas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if om.ndim != 1 or om.size == 0 or om.shape != w.shape:
            raise ValueError("omegas and weights must be 1-d, nonempty and equal length")
        if not np.all(om >= 0):
            raise ValueError("frequency nodes must be nonnegative")
        if not np.all(w > 0):
            raise ValueError("quadrature weights must be strictly positive")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "weights", w)

    @classmethod
    def gauss(cls, n_nodes: int, omega_scale: float = 1.0) -> "FrequencyRule":
        """n_nodes Gauss-Legendre nodes in theta, omega = omega_scale * tan(theta),
        folded: a node at zero (odd n_nodes) keeps its single weight."""
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        x, w = leggauss(n_nodes)
        half_pi = np.pi / 2
        theta, theta_weights = half_pi * x, half_pi * w
        at_zero = np.isclose(theta, 0.0, atol=1e-14)
        pos = (theta > 0) & ~at_zero
        tan_pos = np.tan(theta[pos])
        omegas = omega_scale * tan_pos
        weights = (2.0 * theta_weights[pos]) * (omega_scale * (1.0 + tan_pos ** 2))
        if np.any(at_zero):
            omegas = np.concatenate(([0.0], omegas))
            weights = np.concatenate(([theta_weights[at_zero][0] * omega_scale],
                                      weights))
        return cls(omegas=omegas, weights=weights, omega_scale=omega_scale)

    @property
    def n_nodes(self) -> int:
        """Node count of the rule on the whole line, before the fold."""
        return 2 * self.omegas.size - int(self.omegas[0] == 0.0)

    def half(self):
        """(omegas, weights): the one accessor every integral reads, also
        perfbench/tracer.py, which counts technique i's nodes from it."""
        return self.omegas, self.weights
