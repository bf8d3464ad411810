"""Quadrature rules on the imaginary axis via the tangent substitution.

Integrals of the form (1/2pi) * int_-inf^inf f(omega) d omega are mapped onto
the bounded interval (-pi/2, pi/2) by omega = scale * tan(theta) and evaluated
with Gauss-Legendre nodes in theta.  The Jacobian scale * (1 + tan(theta)^2)
is kept separate from the Gauss weights so callers can inspect the raw
theta-integrand (useful for divergence detection on differential-algebraic
systems whose transfer function does not decay).
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
    """Gauss-Legendre rule in theta with omega = omega_scale * tan(theta).

    Attributes
    ----------
    theta : ndarray
        Nodes in (-pi/2, pi/2), ascending and symmetric about zero.
    theta_weights : ndarray
        Positive Gauss weights for the theta interval.
    omega_scale : float
        Stretch factor of the substitution.  One by default; systems whose
        dynamics live near |omega| = w are integrated more accurately with
        omega_scale close to w.
    """

    theta: np.ndarray
    theta_weights: np.ndarray
    omega_scale: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        w = np.asarray(self.theta_weights, dtype=float)
        if t.ndim != 1 or t.shape != w.shape:
            raise ValueError("theta and theta_weights must be 1-d and equal length")
        if np.any(np.abs(t) >= np.pi / 2):
            raise ValueError("theta nodes must lie strictly inside (-pi/2, pi/2)")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        # symmetry about zero keeps the positive-half evaluation exact
        if not np.allclose(t, -t[::-1], atol=1e-12):
            raise ValueError("theta nodes must be symmetric about zero")
        if not (self.omega_scale > 0):
            raise ValueError("omega_scale must be positive")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "theta_weights", w)

    @classmethod
    def gauss(cls, n_nodes: int, omega_scale: float = 1.0) -> "FrequencyRule":
        """Build the rule from an n_nodes Gauss-Legendre rule on (-pi/2, pi/2)."""
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        x, w = leggauss(n_nodes)
        half_pi = np.pi / 2
        return cls(theta=half_pi * x, theta_weights=half_pi * w,
                   omega_scale=omega_scale)

    @property
    def n_nodes(self) -> int:
        return self.theta.size

    @property
    def omegas(self) -> np.ndarray:
        """All frequency nodes omega_j = omega_scale * tan(theta_j)."""
        return self.omega_scale * np.tan(self.theta)

    def half(self):
        """Collapse the rule onto omega >= 0 for even integrands.

        Returns
        -------
        omegas : ndarray
            Nonnegative frequency nodes, ascending.
        gauss_weights : ndarray
            Gauss weights with the mirror node folded in (doubled away from
            zero, single at an exact zero node).
        jacobians : ndarray
            omega_scale * (1 + tan(theta)^2) at each kept node.
        """
        t = self.theta
        w = self.theta_weights
        at_zero = np.isclose(t, 0.0, atol=1e-14)
        pos = (t > 0) & ~at_zero
        tan_pos = np.tan(t[pos])
        omegas = self.omega_scale * tan_pos
        gw = 2.0 * w[pos]
        jac = self.omega_scale * (1.0 + tan_pos ** 2)
        if np.any(at_zero):
            omegas = np.concatenate(([0.0], omegas))
            gw = np.concatenate(([w[at_zero][0]], gw))
            jac = np.concatenate(([self.omega_scale], jac))
        order = np.argsort(omegas)
        return omegas[order], gw[order], jac[order]


def default_rule() -> FrequencyRule:
    """The 200-node rule used when callers do not supply their own."""
    return FrequencyRule.gauss(DEFAULT_NODES)
