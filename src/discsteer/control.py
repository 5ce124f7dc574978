"""Control synthesis, endpoint verification and physical radius reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import ZeroTable
from .dynamics import (ControlSignal, GalerkinSystem, free_evolution,
                       simulate_bilinear)
from .errors import AdmissibilityError, DomainError
from .moment import build_frequencies, build_rhs, solve_moment
from .spectral import RadialState, TargetParams, wave_packet

CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class SteeringProblem:
    """One synthesis task: reference parameters, horizon, and the two states."""

    params: TargetParams
    T: float
    psi0: RadialState
    psif: RadialState

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise DomainError(f"horizon T={self.T} must be finite and positive")

    def linear_target(self, sys: GalerkinSystem) -> RadialState:
        """Target of the linearised problem from 0: psif - exp(-i Lambda T) psi0."""
        free = free_evolution(RadialState(self.psi0.padded(sys.N)), self.T,
                              sys.lambdas)
        return RadialState(self.psif.padded(sys.N) - free.coeffs)


@dataclass(frozen=True)
class RadiusTrajectory:
    """Physical radius R(tau) on a tau grid [0, T*].

    The grid is the image tau(g) of a uniform grid in the fixed-domain time
    g, so it is not uniform in tau: its spacing is 1/4 e^{2U(g)} dg.
    """

    taus: np.ndarray
    radii: np.ndarray
    T_star: float

    def __post_init__(self):
        if np.any(self.radii <= 0):
            raise DomainError("the radius must stay strictly positive")


def _check_coverage(K: int, sys: GalerkinSystem) -> None:
    if not 1 <= K <= sys.N:
        raise DomainError(f"frequency coverage K={K} must lie in 1..N={sys.N}")


def synthesize_linearized(problem: SteeringProblem, K: int, sys: GalerkinSystem,
                          table: ZeroTable) -> ControlSignal:
    """Control v steering the linearised system from psi0 to psif in time T.

    K is the highest mode index covered by the moment frequencies. Nonzero
    initial data is reduced away by `problem.linear_target`.
    """
    _check_coverage(K, sys)
    freqs = build_frequencies(table, K)
    mp = build_rhs(problem.linear_target(sys), problem.params, problem.T, sys,
                   freqs)
    return integrate_control(solve_moment(mp).signal)


def integrate_control(w: ControlSignal) -> ControlSignal:
    """Antiderivative v(t) = int_0^t w of an exponential-sum control.

    `w` must carry an `ExpSum` (as every `solve_moment` control does); a
    sampled `w`, with or without a point evaluator, raises `DomainError`.
    Both vanishing moments of w (int w = 0 and int t w = 0) are required;
    they make v vanish at both endpoints and have zero mean. The moments and
    v are exact closed forms, and v's derivative, taken from its
    coefficients, is w up to rounding.
    """
    if not w.closed_form:
        raise DomainError("integrate_control needs an exponential-sum control")
    total, t_moment = w.fn.integral(w.T), w.fn.t_moment(w.T)
    scale = max(w.max_abs(), 1e-300)
    if abs(total) > CONSTRAINT_TOL * max(1.0, scale * w.T) \
            or abs(t_moment) > CONSTRAINT_TOL * max(1.0, scale * w.T ** 2):
        raise AdmissibilityError(
            f"w violates the vanishing-moment constraints (int w = {total:.3e}, "
            f"int t w = {t_moment:.3e})")
    return ControlSignal.from_function(w.fn.antiderivative(), w.T,
                                       n_samples=w.samples.size)


def _cumtrapz(vals, grid):
    out = np.zeros_like(vals)
    out[1:] = np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))
    return out


def potential(u: ControlSignal) -> ControlSignal:
    """Galerkin potential coefficient u'(t) - 4 u(t)^2 of a deformation
    control, assembled from the carried (u, u') pair and sampled on u's
    grid."""
    return ControlSignal.from_function(
        lambda t: u.derivative(t) - 4.0 * np.asarray(u(t)) ** 2, u.T,
        n_samples=u.samples.size)


def endpoint_map(u: ControlSignal, psi0: RadialState, sys: GalerkinSystem,
                 steps: int = 2 ** 14) -> RadialState:
    """Final state of the bilinear system under the deformation control u.

    The Galerkin potential coefficient is `potential(u)`.
    """
    return simulate_bilinear(psi0, potential(u), sys, steps=steps).final


@dataclass
class SteeringReport:
    control: ControlSignal
    residuals: list
    converged: bool
    iterations: int


def _project_tangent(state: RadialState, packet: np.ndarray) -> RadialState:
    """Remove the Re<., packet> component so build_rhs accepts the residual."""
    c = state.coeffs.copy()
    inner = np.real(np.sum(c[:3] * np.conj(packet)))
    c[:3] -= inner * packet
    return RadialState(c)


def steer_local(problem: SteeringProblem, iterations: int = 5, K: int = 20, *,
                sys: GalerkinSystem, table: ZeroTable,
                steps: int = 2 ** 14, tol: float = 1e-6):
    """Newton loop with frozen linearisation steering the full bilinear system.

    Each iteration simulates the bilinear system under the current control,
    projects the endpoint mismatch onto the tangent space at the reference
    wave packet, synthesizes a linearised correction and adds it to the
    control. The loop stops when the residual reaches tol, after
    `iterations` corrections, or on divergence (the residual growing three
    times in a row); the report holds the residual of every endpoint.
    """
    if iterations < 0:
        raise DomainError("iterations must be >= 0")
    _check_coverage(K, sys)
    T = problem.T
    packet = wave_packet(problem.params, T, sys.lambdas)
    psi0 = RadialState(problem.psi0.padded(sys.N))
    psif = RadialState(problem.psif.padded(sys.N))
    zero = RadialState(np.zeros(sys.N, dtype=complex))

    u = ControlSignal.zero(T)
    residuals = []
    grow_streak = 0
    for it in range(iterations + 1):
        endpoint = endpoint_map(u, psi0, sys, steps=steps)
        mismatch = RadialState(psif.coeffs - endpoint.coeffs)
        residuals.append(mismatch.l2_norm())
        grown = len(residuals) >= 2 and residuals[-1] > residuals[-2]
        grow_streak = grow_streak + 1 if grown else 0
        if residuals[-1] <= tol or grow_streak >= 3 or it == iterations:
            return SteeringReport(control=u, residuals=residuals,
                                  converged=residuals[-1] <= tol, iterations=it)
        # the correction only acts on covered modes; drop the (scheme-error
        # sized) components beyond the frequency coverage
        tc = _project_tangent(mismatch, packet).coeffs
        tc[K:] = 0.0
        correction_problem = SteeringProblem(params=problem.params, T=T,
                                             psi0=zero, psif=RadialState(tc))
        u = u + synthesize_linearized(correction_problem, K, sys=sys, table=table)


def radius_from_control(u: ControlSignal,
                        n_steps: int = 4096) -> RadiusTrajectory:
    """Reconstruct the physical radius trajectory R(tau) from u.

    The time change g'(tau) = 4 exp(-2 U(g)), U(g) = int_0^g u, is
    separable: tau(g) = 1/4 int_0^g exp(2 U). Both integrals are taken by
    the cumulative trapezoid rule on a uniform grid of n_steps intervals in
    g over [0, T], and R(tau(g)) = exp(U(g)).
    """
    total = u.integral()
    if abs(total) > CONSTRAINT_TOL * max(1.0, u.max_abs() * u.T):
        raise AdmissibilityError(f"int_0^T u = {total:.3e}; zero mean required")
    g = np.linspace(0.0, u.T, n_steps + 1)
    U = _cumtrapz(np.atleast_1d(u(g)), g)
    taus = 0.25 * _cumtrapz(np.exp(2.0 * U), g)
    return RadiusTrajectory(taus=taus, radii=np.exp(U), T_star=float(taus[-1]))


def control_from_radius(traj: RadiusTrajectory) -> tuple:
    """Recover (t samples, u samples) from a radius trajectory.

    Uses u(g(tau)) = R'(tau) R(tau) / 4 with the time reparametrisation
    g(tau) = 4 int_0^tau R(sigma)^-2 d sigma; the round trip with
    radius_from_control is accurate to the differentiation error.
    """
    taus, radii = traj.taus, traj.radii
    r_dot = np.gradient(radii, taus, edge_order=2)
    u_vals = 0.25 * r_dot * radii
    g_vals = 4.0 * _cumtrapz(1.0 / radii ** 2, taus)
    return g_vals, u_vals


def map_fixed_to_disc(psi_samples: np.ndarray, r_grid: np.ndarray,
                      u_value: float, phase_integral: float,
                      radius: float = 1.0) -> tuple:
    """Invert the phase change and scaling back to the physical disc.

    Given samples of the fixed-domain state psi on r_grid in [0, 1], returns
    (rho_grid, phi_samples) on [0, radius]; the amplitude is scaled by
    1/radius so the disc probability is preserved.
    """
    psi_samples = np.asarray(psi_samples, dtype=complex)
    r_grid = np.asarray(r_grid, dtype=float)
    xi = psi_samples * np.exp(1j * u_value * r_grid ** 2 - 4j * phase_integral)
    return radius * r_grid, xi / radius
