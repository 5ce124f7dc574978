"""Control synthesis, endpoint verification and physical radius reconstruction."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import (ControlSignal, ExpSum, GalerkinSystem, free_evolution,
                       simulate_bilinear)
from .errors import AdmissibilityError, DomainError, ConvergenceError
from .moment import (FrequencySet, build_frequencies, build_rhs, gamma_tilde,
                     solve_moment)
from .spectral import RadialState, TargetParams

CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class SteeringProblem:
    """One synthesis task: reference parameters, horizon, and the two states."""

    params: TargetParams
    T: float
    psi0: RadialState
    psif: RadialState

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("horizon T must be positive")


@dataclass(frozen=True)
class RadiusTrajectory:
    """Physical radius R(tau) on a tau grid [0, T*].

    The grid is uniform except for its last interval, which is 1 to 1.5
    steps long.
    """

    taus: np.ndarray
    radii: np.ndarray
    T_star: float

    def __post_init__(self):
        if np.any(self.radii <= 0):
            raise DomainError("the radius must stay strictly positive")


def synthesize_linearized(problem: SteeringProblem, K: int,
                          sys: GalerkinSystem | None = None,
                          table=None) -> ControlSignal:
    """Control v steering the linearised system from psi0 to psif in time T.

    K is the highest mode index covered by the moment frequencies. Nonzero
    initial data is reduced away: the effective target is
    psif - (free evolution of psi0).
    """
    if sys is None:
        raise DomainError("a GalerkinSystem is required")
    freqs = build_frequencies_from_sys(K, sys, table)
    target = RadialState(problem.psif.padded(sys.N)
                         - free_evolution(RadialState(problem.psi0.padded(sys.N)),
                                          problem.T, sys.lambdas).coeffs)
    mp = build_rhs(target, problem.params, problem.T, sys, freqs)
    sol = solve_moment(mp)
    return integrate_control(sol.signal)


def build_frequencies_from_sys(K: int, sys: GalerkinSystem, table) -> FrequencySet:
    if table is None:
        raise DomainError("a ZeroTable is required to build frequencies")
    if K > sys.N:
        raise DomainError("frequency coverage K cannot exceed the truncation N")
    return build_frequencies(table, K)


def integrate_control(w: ControlSignal) -> ControlSignal:
    """Antiderivative v(t) = int_0^t w, carrying w as the exact derivative.

    Requires both vanishing moments of w (int w = 0 and int t w = 0), which
    make v vanish at both endpoints and have zero mean. For an exponential
    sum w the moments and v are exact closed forms; another exact evaluator
    is integrated by panel quadrature, and a sampled w by the trapezoid rule.
    """
    closed = isinstance(w.fn, ExpSum)
    grid = w.grid
    if closed:
        total, t_moment = w.fn.integral(w.T), w.fn.t_moment(w.T)
    elif w.fn is not None:
        # panel quadrature: the sample grid cannot resolve oscillatory w
        x, wq = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, w.T, 4097)
        h = edges[1] - edges[0]
        nodes = (edges[:-1, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
        weights = np.tile(0.5 * h * wq, 4096)
        w_nodes = np.real(w.fn(nodes))
        total = float(np.sum(weights * w_nodes))
        t_moment = float(np.sum(weights * nodes * w_nodes))
    else:
        vals = np.atleast_1d(w(grid))
        total = float(np.trapezoid(vals, grid))
        t_moment = float(np.trapezoid(grid * vals, grid))
    scale = max(w.max_abs(), 1e-300)
    if abs(total) > CONSTRAINT_TOL * max(1.0, scale * w.T) \
            or abs(t_moment) > CONSTRAINT_TOL * max(1.0, scale * w.T ** 2):
        raise AdmissibilityError(
            f"w violates the vanishing-moment constraints (int w = {total:.3e}, "
            f"int t w = {t_moment:.3e})")
    if closed:
        return ControlSignal.from_function(w.fn.antiderivative(), w.T,
                                           n_samples=w.samples.size, dfn=w.fn)
    if w.fn is not None:
        fn = _cumulative_quadrature(w.fn, w.T)
        samples = fn(grid)
    else:
        samples = _cumtrapz(vals, grid)
        fn = None
    return ControlSignal(samples=samples, T=w.T, fn=fn, dfn=w.fn or (lambda t: w(t)))


def _cumtrapz(vals, grid):
    out = np.zeros_like(vals)
    out[1:] = np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))
    return out


def _cumulative_quadrature(fn, T, n_sub: int = 4096, order: int = 8):
    """Exact-to-roundoff running integral of a smooth fn via panel quadrature."""
    x, wq = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, T, n_sub + 1)
    h = edges[1] - edges[0]
    nodes = edges[:-1, None] + 0.5 * h * (x[None, :] + 1.0)
    panel = np.real(fn(nodes.ravel())).reshape(n_sub, order) @ (0.5 * h * wq)
    prefix = np.concatenate([[0.0], np.cumsum(panel)])

    def v_fn(t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip((t / h).astype(int), 0, n_sub - 1)
        lo = edges[idx]
        span = t - lo
        sub_nodes = lo[:, None] + 0.5 * span[:, None] * (x[None, :] + 1.0)
        sub_vals = np.real(fn(sub_nodes.ravel())).reshape(t.size, order)
        out = prefix[idx] + np.sum(sub_vals * (0.5 * span[:, None] * wq), axis=1)
        return out[0] if scalar else out

    return v_fn


def endpoint_map(u: ControlSignal, psi0: RadialState, sys: GalerkinSystem,
                 steps: int = 2 ** 14) -> RadialState:
    """Final state of the bilinear system under the deformation control u.

    The effective Galerkin potential coefficient is u'(t) - 4 u(t)^2,
    assembled from the carried (u, u') pair.
    """
    def w_eff(t):
        return u.derivative(t) - 4.0 * np.asarray(u(t)) ** 2

    coeff = ControlSignal.from_function(w_eff, u.T, n_samples=u.samples.size)
    result = simulate_bilinear(psi0, coeff, sys, steps=steps)
    return result.final


@dataclass
class SteeringReport:
    control: ControlSignal
    residuals: list
    converged: bool
    iterations: int

    def to_json(self, path, extra: dict | None = None) -> None:
        payload = {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residuals],
            "control_samples": [float(s) for s in self.control.samples],
            "horizon": self.control.T,
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def _project_tangent(state: RadialState, packet: np.ndarray) -> RadialState:
    """Remove the Re<., packet> component so build_rhs accepts the residual."""
    c = state.coeffs.copy()
    inner = np.real(np.sum(c[:3] * np.conj(packet)))
    c[:3] -= inner * packet
    return RadialState(c)


def steer_local(problem: SteeringProblem, iterations: int = 5, K: int = 20,
                sys: GalerkinSystem | None = None, table=None,
                steps: int = 2 ** 14, tol: float = 1e-6):
    """Newton loop with frozen linearisation steering the full bilinear system.

    Each iteration simulates the bilinear system under the current control,
    projects the endpoint mismatch onto the tangent space at the reference
    wave packet, synthesizes a linearised correction and adds it to the
    control. Divergence (residual growing three times in a row) aborts with
    the history attached.
    """
    if sys is None:
        raise DomainError("a GalerkinSystem is required")
    T = problem.T
    wts = problem.params.weights()
    packet = wts * np.exp(-1j * sys.lambdas[:3] * T)
    psi0 = RadialState(problem.psi0.padded(sys.N))
    psif = RadialState(problem.psif.padded(sys.N))

    u = ControlSignal.zero(T)
    residuals = []
    grow_streak = 0
    for it in range(iterations):
        endpoint = endpoint_map(u, psi0, sys, steps=steps)
        mismatch = RadialState(psif.coeffs - endpoint.coeffs)
        res = mismatch.l2_norm()
        residuals.append(res)
        if res <= tol:
            return SteeringReport(control=u, residuals=residuals,
                                  converged=True, iterations=it)
        if len(residuals) >= 2 and residuals[-1] > residuals[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                return SteeringReport(control=u, residuals=residuals,
                                      converged=False, iterations=it)
        else:
            grow_streak = 0
        target = _project_tangent(mismatch, packet)
        # the correction only acts on covered modes; drop the (scheme-error
        # sized) components beyond the frequency coverage
        tc = target.coeffs.copy()
        tc[K:] = 0.0
        target = RadialState(tc)
        correction_problem = SteeringProblem(
            params=problem.params, T=T,
            psi0=RadialState(np.zeros(sys.N, dtype=complex)), psif=target)
        v = synthesize_linearized(correction_problem, K, sys=sys, table=table)
        u = u + v
    endpoint = endpoint_map(u, psi0, sys, steps=steps)
    res = float(np.linalg.norm(psif.coeffs - endpoint.coeffs))
    residuals.append(res)
    return SteeringReport(control=u, residuals=residuals,
                          converged=res <= tol, iterations=iterations)


def radius_from_control(u: ControlSignal, T: float | None = None,
                        n_steps: int = 4096) -> RadiusTrajectory:
    """Reconstruct the physical radius trajectory R(tau) from u.

    Integrates g'(tau) = 4 exp(-2 int_0^{g} u) by RK4 with fixed step until
    g reaches T (event located by bisection on the final step, which absorbs
    the step before it when it is shorter than half a step), then sets
    R(tau) = exp(int_0^{g(tau)} u).
    """
    if T is None:
        T = u.T
    grid = u.grid
    vals = np.atleast_1d(u(grid))
    total = float(np.trapezoid(vals, grid))
    if abs(total) > CONSTRAINT_TOL * max(1.0, u.max_abs() * u.T):
        raise AdmissibilityError(f"int_0^T u = {total:.3e}; zero mean required")

    # prefix integral of u on a fine grid, extended by zero outside [0, T]
    fine = np.linspace(0.0, u.T, 1 << 15)
    fine_vals = np.atleast_1d(u(fine))
    prefix = _cumtrapz(fine_vals, fine)

    def u_prefix(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(np.clip(t, 0.0, u.T), fine, prefix)
        return out

    def g_rate(g):
        return 4.0 * np.exp(-2.0 * u_prefix(g))

    u_l1 = float(np.trapezoid(np.abs(fine_vals), fine))
    horizon = 2.0 * T * np.exp(2.0 * u_l1)
    dt = T / n_steps

    taus = [0.0]
    gs = [0.0]
    g = 0.0
    tau = 0.0
    while g < T:
        k1 = g_rate(g)
        k2 = g_rate(g + 0.5 * dt * k1)
        k3 = g_rate(g + 0.5 * dt * k2)
        k4 = g_rate(g + dt * k3)
        g_next = g + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += dt
        if g_next >= T:
            # bisect within the last step for g(tau*) = T
            lo, hi = 0.0, dt
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                k1 = g_rate(g)
                k2 = g_rate(g + 0.5 * mid * k1)
                k3 = g_rate(g + 0.5 * mid * k2)
                k4 = g_rate(g + mid * k3)
                g_mid = g + mid / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                if g_mid < T:
                    lo = mid
                else:
                    hi = mid
            tau = taus[-1] + 0.5 * (lo + hi)
            g_next = T
        taus.append(tau)
        gs.append(g_next)
        g = g_next
        if tau > horizon:
            raise ConvergenceError("radius ODE failed to reach the horizon "
                                   "(internal error)")
    if len(taus) > 2 and taus[-1] - taus[-2] < 0.5 * dt:
        # a sliver of a final step would make control_from_radius
        # differentiate across it; let the last interval span 1 to 1.5 steps
        del taus[-2], gs[-2]
    taus = np.array(taus)
    gs = np.array(gs)
    radii = np.exp(u_prefix(gs))
    return RadiusTrajectory(taus=taus, radii=radii, T_star=float(taus[-1]))


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
