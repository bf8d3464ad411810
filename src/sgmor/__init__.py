"""Stochastic spectral projection and stability-preserving model reduction.

Pipeline: describe a linear dynamical system whose matrices depend affinely
on random parameters, project it onto an orthonormal polynomial chaos basis,
reduce the large coupled system with a Krylov method, and, where plain
reduction loses asymptotic stability, restore a dissipative structure that
every projection provably preserves.
"""

from .frequency import DEFAULT_NODES, FrequencyRule
from .pce import (Distribution, PCBasis, QuadratureRule, basis_count,
                  build_basis, eval_basis, moment_matrix,
                  monte_carlo_rule, tensor_rule)
from .systems import (AffineParamSystem, DissipativityCheck,
                      H2DivergenceError, LTISystem, PencilSpectrum, eval_at,
                      h2_norm, is_asymptotically_stable,
                      is_dissipative, pencil_spectrum, shifted_solver,
                      transfer_eval, transfer_on_grid)
from .galerkin import assemble, assemble_output, assemble_via_quadrature
from .lyapunov import freq_projection, lyap_residual, solve_lyap_direct
from .stabilize import (CommutationReport, StabilizationOutcome,
                        regularization_commutes, regularize,
                        regularize_affine, technique_i, technique_ii,
                        technique_iii, theta_family)
from .mor import (ArnoldiResult, StabilityReport, SweepRow, arnoldi,
                  h2_relative_error, reduce, stability_sweep)
from .bench import RunConfig, build_bandpass, build_msd, run_experiment
from .mmio import load_system, save_system

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
