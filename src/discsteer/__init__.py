"""Deformation-control synthesis for a radial quantum particle on the unit disc.

Pipeline: certified Bessel zero tables -> Fourier-Bessel spectral data ->
trigonometric moment problem over eigenvalue-gap frequencies -> linearized
control synthesis -> spectral Galerkin verification and physical radius
reconstruction.
"""

from .bessel import (QuadratureRule, ZeroTable, bessel_j, bessel_j_derivative,
                     compute_zeros, gauss_legendre_rule, weighted_integral)
from .control import (RadiusTrajectory, SteeringProblem, control_from_radius,
                      endpoint_map, integrate_control, map_fixed_to_disc,
                      radius_from_control, steer_local, synthesize_linearized)
from .dynamics import (ControlSignal, ExpSum, GalerkinSystem, free_evolution,
                       simulate_bilinear, simulate_linearized)
from .errors import (AdmissibilityError, ConditioningError, ConvergenceError,
                     DiscSteerError, DomainError)
from .moment import (FrequencySet, MomentProblem, MomentSolution,
                     build_frequencies, build_rhs, check_nonresonance,
                     gamma_tilde, gram_matrix, moment_residuals, solve_moment,
                     upper_density)
from .spectral import (RadialState, TargetParams, coupling_closed_form,
                       coupling_diagonal, coupling_matrix, hs_norm, mode,
                       phi_sharp, wave_packet)

__version__ = "0.1.0"
