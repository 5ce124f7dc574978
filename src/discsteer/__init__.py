"""Deformation-control synthesis for a radial quantum particle on the unit disc.

Pipeline: certified Bessel zero tables -> Fourier-Bessel spectral data ->
trigonometric moment problem over eigenvalue-gap frequencies -> linearized
control synthesis -> spectral Galerkin verification and physical radius
reconstruction.
"""

from .bessel import ZeroTable, bessel_j, compute_zeros, gauss_legendre_rule
from .control import (RadiusTrajectory, SteeringProblem, control_from_radius,
                      endpoint_map, integrate_control, map_fixed_to_disc,
                      potential, radius_from_control, steer_local,
                      synthesize_linearized)
from .dynamics import (ControlSignal, ExpSum, GalerkinSystem, free_evolution,
                       simulate_bilinear, simulate_linearized)
from .errors import (AdmissibilityError, ConditioningError, ConvergenceError,
                     DiscSteerError, DomainError)
from .moment import (FrequencySet, MomentProblem, MomentSolution,
                     build_frequencies, build_rhs, gamma_tilde, gram_matrix,
                     moment_residuals, solve_moment)
from .spectral import (RadialState, TargetParams, coupling_matrix, hs_norm,
                       mode, wave_packet)

__version__ = "0.1.0"
