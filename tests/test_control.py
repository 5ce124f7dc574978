"""Synthesis end-to-end, endpoint map, local steering and the radius map."""

import json

import numpy as np
import pytest

from discsteer import (ControlSignal, ExpSum, GalerkinSystem, MomentProblem,
                       RadialState, RadiusTrajectory,
                       SteeringProblem, build_frequencies, control_from_radius,
                       endpoint_map, free_evolution, integrate_control,
                       map_fixed_to_disc, radius_from_control,
                       simulate_linearized, solve_moment, steer_local,
                       synthesize_linearized)
from discsteer.cli import main
from discsteer.errors import AdmissibilityError, DomainError
from test_dynamics import panel_quadrature


def sines(*amps):
    """sum_m amps[m-1] sin(2 pi m t) as an ExpSum (sin x = Re i e^{-ix})."""
    m = np.arange(1, len(amps) + 1)
    return ExpSum(2 * np.pi * m, 1j * np.asarray(amps, dtype=float), [0.0])


def tangent_target(params, T, lam, n_modes, n_support, rng, norm=1e-2,
                   decay=3.5):
    """Random smooth target projected onto the tangent space at the packet."""
    c = np.zeros(n_modes, dtype=complex)
    weights = np.arange(1, n_support + 1, dtype=float) ** -decay
    c[:n_support] = (rng.standard_normal(n_support)
                     + 1j * rng.standard_normal(n_support)) * weights
    packet = params.weights() * np.exp(-1j * lam[:3] * T)
    c[:3] -= np.real(np.sum(c[:3] * np.conj(packet))) * packet
    # the tangent space is real-linear, so rescaling preserves membership
    c *= norm / np.linalg.norm(c)
    return RadialState(c)


class TestIntegrateControl:
    def test_antiderivative_oracle(self):
        # w = sin(2 pi t) - its antiderivative is (1 - cos(2 pi t)) / (2 pi),
        # but that has nonzero mean; use a combination with both moments zero
        T = 1.0
        w = ControlSignal.from_function(sines(1.0, -2.0), T)
        # int w = 0 and int t w = -1/(2 pi) + 2/(4 pi) = 0
        v = integrate_control(w)
        ts = np.linspace(0, T, 101)
        exact = (1 - np.cos(2 * np.pi * ts)) / (2 * np.pi) \
            - (1 - np.cos(4 * np.pi * ts)) / (2 * np.pi)
        assert np.max(np.abs(v(ts) - exact)) < 1e-12
        assert v.is_h10_admissible()
        assert np.max(np.abs(v.derivative(ts) - np.sin(2 * np.pi * ts)
                             + 2 * np.sin(4 * np.pi * ts))) < 1e-12

    def test_closed_form_against_quadrature(self, table, rng):
        freqs = build_frequencies(table, 9)
        d = (rng.standard_normal(freqs.K) + 1j * rng.standard_normal(freqs.K)) \
            / np.arange(1, freqs.K + 1)
        d[freqs.omegas == 0.0] = 0.0  # both vanishing moments
        w = solve_moment(MomentProblem(freqs=freqs, d=d, T=1.0)).signal
        v = integrate_control(w)
        assert v.closed_form and not np.any(v.fn.omegas == 0.0)
        ts = np.linspace(0, 1.0, 101)
        assert np.max(np.abs(v(ts) - panel_quadrature(w.fn, ts))) < 1e-12
        assert np.max(np.abs(v.derivative(ts) - w(ts))) < 1e-12
        assert v.is_h10_admissible()

    def test_rejects_nonzero_mean(self):
        # cos x = Re e^{-ix}
        w = ControlSignal.from_function(ExpSum([2 * np.pi], [1.0], [0.1]), 1.0)
        with pytest.raises(AdmissibilityError):
            integrate_control(w)

    def test_rejects_nonzero_t_moment(self):
        # zero mean but int t sin(2 pi t) = -1/(2 pi) != 0
        w = ControlSignal.from_function(sines(1.0), 1.0)
        with pytest.raises(AdmissibilityError):
            integrate_control(w)

    def test_rejects_non_exponential_sum(self):
        # both have vanishing moments; only the representation is refused
        fn = lambda t: np.sin(2 * np.pi * np.asarray(t)) \
            - 2 * np.sin(4 * np.pi * np.asarray(t))
        callable_w = ControlSignal.from_function(fn, 1.0)
        sampled_w = ControlSignal(samples=callable_w.samples, T=1.0)
        for w in (sampled_w, callable_w):
            with pytest.raises(DomainError):
                integrate_control(w)


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
def test_steering_problem_needs_finite_positive_horizon(params, T):
    zero = RadialState(np.zeros(4, dtype=complex))
    with pytest.raises(DomainError, match="finite and positive"):
        SteeringProblem(params=params, T=T, psi0=zero, psif=zero)


class TestSynthesizeLinearized:
    def test_free_target_needs_no_control(self, table, sys40, params, rng):
        T = 1.0
        psi0 = tangent_target(params, 0.0, sys40.lambdas, 40, 10, rng)
        psif = free_evolution(psi0, T, sys40.lambdas)
        prob = SteeringProblem(params=params, T=T, psi0=psi0, psif=psif)
        v = synthesize_linearized(prob, 20, sys=sys40, table=table)
        assert v.max_abs() < 1e-10

    def test_scaling_linearity(self, table, sys40, params, rng):
        T = 1.0
        target = tangent_target(params, T, sys40.lambdas, 40, 8, rng)
        zero = RadialState(np.zeros(40, dtype=complex))
        v1 = synthesize_linearized(
            SteeringProblem(params=params, T=T, psi0=zero, psif=target),
            20, sys=sys40, table=table)
        v2 = synthesize_linearized(
            SteeringProblem(params=params, T=T, psi0=zero,
                            psif=RadialState(2 * target.coeffs)),
            20, sys=sys40, table=table)
        ts = np.linspace(0, T, 301)
        assert np.max(np.abs(v2(ts) - 2 * v1(ts))) < 1e-10 * v1.max_abs() + 1e-14

    @pytest.mark.parametrize("K", [0, -5, 41])
    def test_rejects_coverage_outside_truncation(self, table, sys40, params, K):
        zero = RadialState(np.zeros(40, dtype=complex))
        prob = SteeringProblem(params=params, T=1.0, psi0=zero, psif=zero)
        with pytest.raises(DomainError, match=r"must lie in 1\.\.N=40"):
            synthesize_linearized(prob, K, sys=sys40, table=table)

    def test_hits_target(self, table, sys40, params, rng):
        T = 1.0
        target = tangent_target(params, T, sys40.lambdas, 40, 10, rng)
        zero = RadialState(np.zeros(40, dtype=complex))
        prob = SteeringProblem(params=params, T=T, psi0=zero, psif=target)
        v = synthesize_linearized(prob, 20, sys=sys40, table=table)
        end = simulate_linearized(v, params, sys40)
        rel = np.linalg.norm(end.coeffs - target.coeffs) / target.l2_norm()
        assert rel < 1e-4
        # the constrained modes are hit to solver precision
        assert np.linalg.norm(end.coeffs[:20] - target.coeffs[:20]) \
            / target.l2_norm() < 1e-10


class TestEndpointMap:
    def test_zero_control_is_free_evolution(self, table, rng):
        # low truncation so the scheme phase error stays below the tolerance
        sys5 = GalerkinSystem.build(5, table)
        c0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        state = RadialState(c0).normalize()
        out = endpoint_map(ControlSignal.zero(0.01), state, sys5, steps=8192)
        exact = free_evolution(state, 0.01, sys5.lambdas)
        assert np.linalg.norm(out.coeffs - exact.coeffs) < 1e-8

    def test_differential_matches_linearization(self, table, sys40, params):
        # d/d eps of the endpoint along an admissible direction v equals the
        # linearized endpoint at first order around u = 0
        T = 1.0
        w = ControlSignal.from_function(sines(1.0, -2.0), T)
        v = integrate_control(w)
        packet0 = RadialState(params.weights())
        lin = simulate_linearized(v, params, sys40)
        eps = 1e-4
        plus = endpoint_map(eps * v, RadialState(packet0.padded(40)), sys40,
                            steps=2 ** 14)
        # baseline from the same discrete propagator, so the finite
        # difference isolates the control response
        free = endpoint_map(ControlSignal.zero(T), RadialState(packet0.padded(40)),
                            sys40, steps=2 ** 14)
        diff = (plus.coeffs - free.coeffs) / eps
        rel = np.linalg.norm(diff - lin.coeffs) / np.linalg.norm(lin.coeffs)
        assert rel < 1e-2  # first-order agreement, O(eps) remainder


class TestSteerLocal:
    def test_trivial_target_converges_immediately(self, table, sys40, params):
        T = 1.0
        psi0 = RadialState(params.weights()).normalize()
        psif = free_evolution(RadialState(psi0.padded(40)), T, sys40.lambdas)
        prob = SteeringProblem(params=params, T=T, psi0=psi0, psif=psif)
        report = steer_local(prob, iterations=2, K=10, sys=sys40, table=table,
                             steps=2 ** 13)
        assert report.converged
        # the initial residual is pure time-stepping phase error; at most one
        # correction is needed to fall below the tolerance
        assert report.iterations <= 1
        assert report.residuals[-1] < 1e-6

    def test_small_perturbation_contracts(self, table, sys40, params, rng):
        T = 1.0
        delta = 1e-3
        psi0 = RadialState(params.weights())
        pert = tangent_target(params, T, sys40.lambdas, 40, 6, rng, norm=delta)
        # place the target a distance delta from the *discrete* free endpoint
        # so the first residual is exactly the perturbation size
        free = endpoint_map(ControlSignal.zero(T), RadialState(psi0.padded(40)),
                            sys40, steps=2 ** 14)
        psif = RadialState(free.coeffs + pert.coeffs)
        prob = SteeringProblem(params=params, T=T, psi0=psi0, psif=psif)
        report = steer_local(prob, iterations=2, K=12, sys=sys40, table=table,
                             steps=2 ** 14, tol=1e-9)
        # first residual is the perturbation size; one Newton step leaves a
        # quadratic remainder
        assert report.residuals[0] == pytest.approx(delta, rel=1e-6)
        assert report.residuals[1] <= 10 * delta ** 2

    @pytest.mark.filterwarnings("ignore:steps=")
    def test_corrections_share_frequencies(self, table, sys40, params, rng):
        T = 1.0
        psi0 = RadialState(params.weights())
        pert = tangent_target(params, T, sys40.lambdas, 40, 6, rng, norm=1e-3)
        free = endpoint_map(ControlSignal.zero(T), RadialState(psi0.padded(40)),
                            sys40, steps=2 ** 13)
        prob = SteeringProblem(params=params, T=T, psi0=psi0,
                               psif=RadialState(free.coeffs + pert.coeffs))
        report = steer_local(prob, iterations=2, K=12, sys=sys40, table=table,
                             steps=2 ** 13, tol=1e-12)
        assert report.iterations == 2  # u = zero + two corrections
        zero = RadialState(np.zeros(40, dtype=complex))
        one = synthesize_linearized(
            SteeringProblem(params=params, T=T, psi0=zero, psif=pert),
            12, sys=sys40, table=table)
        u = report.control
        assert u.closed_form and u.fn.omegas.size == one.fn.omegas.size
        ts = np.linspace(0, T, 101)
        assert np.max(np.abs(u(ts) - panel_quadrature(u.fn.derivative(), ts))) < 1e-12

    @pytest.mark.parametrize("history, iterations, stop", [
        # a fall resets the streak; the third growth in a row aborts
        ([1.0, 2.0, 3.0, 2.5, 3.0, 4.0, 5.0, 6.0], 10, 6),
        # the iteration cap comes first
        ([1.0, 2.0, 3.0, 4.0], 1, 1),
    ])
    def test_divergence_aborts(self, table, sys40, params, monkeypatch,
                               history, iterations, stop):
        import discsteer.control as control_module
        T = 1.0
        psif = RadialState(np.zeros(40, dtype=complex))
        calls = []

        def growing_endpoint(u, psi0, sys, steps):
            # the mismatch lies on mode 5, which is trivially tangent
            c = np.zeros(sys.N, dtype=complex)
            c[4] = 1e-3 * history[len(calls)]
            calls.append(u)
            return RadialState(-c)

        monkeypatch.setattr(control_module, "endpoint_map", growing_endpoint)
        prob = SteeringProblem(params=params, T=T,
                               psi0=RadialState(params.weights()), psif=psif)
        report = steer_local(prob, iterations=iterations, K=10, sys=sys40,
                             table=table, tol=1e-12)
        assert not report.converged
        assert report.iterations == stop
        assert report.residuals == pytest.approx(
            [1e-3 * r for r in history[:stop + 1]], rel=1e-15)
        # the reported control is the one behind the last residual
        assert len(calls) == stop + 1 and report.control is calls[-1]

    def test_rejects_negative_iterations(self, table, sys40, params):
        zero = RadialState(np.zeros(40, dtype=complex))
        prob = SteeringProblem(params=params, T=1.0, psi0=zero, psif=zero)
        with pytest.raises(DomainError):
            steer_local(prob, iterations=-1, sys=sys40, table=table)

    def test_report_serialization(self, table, sys40, params, tmp_path):
        # the steer command's report holds steer_local's report, unrounded
        T = 1.0
        psi0 = RadialState(params.weights()).normalize()
        psif = free_evolution(RadialState(psi0.padded(40)), T, sys40.lambdas)
        prob = SteeringProblem(params=params, T=T, psi0=psi0, psif=psif)
        report = steer_local(prob, iterations=1, K=10, sys=sys40, table=table,
                             steps=2 ** 13)
        psi0.to_json(tmp_path / "psi0.json")
        psif.to_json(tmp_path / "psif.json")
        out = tmp_path / "steer"
        main(["steer", "--N", "40", "--K", "10", "--iterations", "1",
              "--steps", str(2 ** 13), "--psi0", str(tmp_path / "psi0.json"),
              "--psif", str(tmp_path / "psif.json"), "--out", str(out)])
        written = json.loads((out / "steer_report.json").read_text())
        assert written["converged"] is report.converged
        assert written["iterations"] == report.iterations
        assert written["residual_history"] == report.residuals
        assert written["control_samples"] == list(report.control.samples)
        assert written["horizon"] == report.control.T == T

    @pytest.mark.parametrize("K", [-2, 0, 41])
    def test_rejects_coverage_before_simulating(self, table, sys40, params,
                                                monkeypatch, K):
        import discsteer.control as control_module
        calls = []
        monkeypatch.setattr(control_module, "endpoint_map",
                            lambda *args, **kwargs: calls.append(args))
        zero = RadialState(np.zeros(40, dtype=complex))
        prob = SteeringProblem(params=params, T=1.0, psi0=zero, psif=zero)
        with pytest.raises(DomainError, match=r"must lie in 1\.\.N=40"):
            steer_local(prob, K=K, sys=sys40, table=table)
        assert calls == []


class TestRadius:
    def test_zero_control(self):
        u = ControlSignal.zero(1.0)
        traj = radius_from_control(u)
        assert traj.T_star == pytest.approx(0.25, abs=1e-10)
        assert np.max(np.abs(traj.radii - 1.0)) < 1e-10
        # g(tau) = 4 tau: the trajectory spans tau in [0, T/4]
        assert traj.taus[-1] == pytest.approx(0.25, abs=1e-10)

    def test_endpoints_unit_radius(self):
        fn = lambda t: 0.05 * np.sin(2 * np.pi * np.asarray(t))
        u = ControlSignal.from_function(fn, 1.0)
        traj = radius_from_control(u)
        assert abs(traj.radii[0] - 1.0) < 1e-8
        assert abs(traj.radii[-1] - 1.0) < 1e-8
        assert np.all(traj.radii > 0)

    def test_round_trip(self):
        fn = lambda t: 0.1 * np.sin(2 * np.pi * np.asarray(t))
        u = ControlSignal.from_function(fn, 1.0, n_samples=8193)
        traj = radius_from_control(u, n_steps=8192)
        g_vals, u_vals = control_from_radius(traj)
        # compare u(g) against the reconstruction on the interior
        mask = (g_vals > 0.02) & (g_vals < 0.98)
        err = np.max(np.abs(u_vals[mask] - fn(g_vals[mask])))
        assert err < 1e-6

    @pytest.mark.parametrize("seed", [[108, 1], [14, 0]])
    def test_round_trip_short_final_step(self, seed):
        # sampled controls at criterion 10's resolution: the last samples
        # must meet the bound of the interior too
        grid = np.linspace(0.0, 1.0, 1025)
        m = np.arange(1, 5)
        phases = 2 * np.pi * np.random.default_rng(seed).random(4)
        samples = (0.03 / m ** 2) @ np.sin(2 * np.pi * np.outer(m, grid)
                                           + phases[:, None])
        traj = radius_from_control(ControlSignal(samples=samples, T=1.0),
                                   n_steps=8192)
        g_vals, u_vals = control_from_radius(traj)
        err = np.abs(u_vals - np.interp(np.clip(g_vals, 0, 1), grid, samples))
        assert np.max(err) < 1e-6

    def test_round_trip_default_resolution(self):
        # criterion 10's control as a callable, and a sampled control of
        # amplitude 0.1/m^2, at the default n_steps: every sample, the last
        # ones included, within criterion 10's bound
        crit10 = lambda t: 0.1 * np.sin(2 * np.pi * np.asarray(t)) \
            - 0.04 * np.sin(4 * np.pi * np.asarray(t))
        grid = np.linspace(0.0, 1.0, 1025)
        m = np.arange(1, 5)
        phases = 2 * np.pi * np.random.default_rng(5).random(4)
        samples = (0.1 / m ** 2) @ np.sin(2 * np.pi * np.outer(m, grid)
                                          + phases[:, None])
        sampled = lambda t: np.interp(t, grid, samples)
        for u, fn in ((ControlSignal.from_function(crit10, 1.0), crit10),
                      (ControlSignal(samples=samples, T=1.0), sampled)):
            g_vals, u_vals = control_from_radius(radius_from_control(u))
            assert np.max(np.abs(u_vals - fn(np.clip(g_vals, 0, 1)))) < 1e-6

    def test_rejects_nonzero_mean(self):
        u = ControlSignal.from_function(lambda t: 0.1 + 0 * np.asarray(t), 1.0)
        with pytest.raises(AdmissibilityError):
            radius_from_control(u)

    def test_trajectory_validation(self):
        with pytest.raises(DomainError):
            RadiusTrajectory(taus=np.array([0.0, 1.0]),
                             radii=np.array([1.0, -0.5]), T_star=1.0)


def test_map_fixed_to_disc_preserves_probability():
    r = np.linspace(0, 1, 512)
    psi = np.sqrt(2) * (1 - r ** 2)  # arbitrary smooth profile
    norm_fixed = np.trapezoid(np.abs(psi) ** 2 * r, r)
    for radius in (0.7, 1.0, 1.4):
        rho, phi = map_fixed_to_disc(psi, r, u_value=0.3, phase_integral=0.2,
                                     radius=radius)
        assert rho[-1] == pytest.approx(radius)
        norm_disc = np.trapezoid(np.abs(phi) ** 2 * rho, rho)
        assert norm_disc == pytest.approx(norm_fixed, rel=1e-12)
        # the transformation is a pure phase and scaling
        assert np.max(np.abs(np.abs(phi) * radius - np.abs(psi))) < 1e-12
