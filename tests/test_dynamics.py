"""Control signals, unitary time stepping and the linearized endpoint formula."""

import numpy as np
import pytest
from scipy.linalg import expm

from discsteer import (ControlSignal, ExpSum, GalerkinSystem, RadialState,
                       free_evolution, simulate_bilinear, simulate_linearized)
from discsteer.errors import AdmissibilityError, DomainError


def bump_control(T, amp=1.0):
    """Smooth control with u(0)=u(T)=0 and zero mean: amp * sin(2 pi t / T)."""
    fn = lambda t: amp * np.sin(2 * np.pi * np.asarray(t) / T)
    dfn = lambda t: amp * 2 * np.pi / T * np.cos(2 * np.pi * np.asarray(t) / T)
    return ControlSignal.from_function(fn, T, dfn=dfn)


class TestControlSignal:
    def test_basics(self):
        u = bump_control(2.0)
        assert u(0.5) == pytest.approx(1.0)
        assert u.max_abs() == pytest.approx(1.0, abs=1e-6)
        assert abs(u.integral()) < 1e-14
        assert u.is_h10_admissible()

    def test_interpolating_fallback(self):
        grid = np.linspace(0, 1, 101)
        u = ControlSignal(samples=grid * (1 - grid), T=1.0)
        assert u(0.5) == pytest.approx(0.25, abs=1e-4)
        d = u.derivative(np.array([0.5]))
        assert d[0] == pytest.approx(0.0, abs=1e-3)
        assert not u.is_h10_admissible()  # positive mean

    def test_algebra(self):
        u = bump_control(1.0, amp=0.5)
        v = 2.0 * u
        assert v(0.25) == pytest.approx(1.0)
        s = u + v
        assert s(0.25) == pytest.approx(1.5)
        with pytest.raises(DomainError):
            u + bump_control(2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ControlSignal(samples=[1.0], T=1.0)
        with pytest.raises(DomainError):
            ControlSignal(samples=[0.0, 0.0], T=-1.0)


def panel_quadrature(fn, upper, n_sub=512, order=16):
    """int_0^b fn for each b in `upper`, by composite Gauss-Legendre panels."""
    x, wq = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, n_sub + 1)
    s = (edges[:-1, None] + 0.5 * (x[None, :] + 1.0) / n_sub).ravel()
    ws = np.tile(0.5 * wq / n_sub, n_sub)
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    nodes = upper[:, None] * s[None, :]
    vals = np.asarray(fn(nodes.ravel())).reshape(nodes.shape)
    return upper * (vals @ ws)


def random_expsum(rng, n=5, omega_max=300.0):
    """Generic sum: +-omega pairs and zero, complex amplitudes, quadratic."""
    pos = np.sort(rng.uniform(1.0, omega_max, n))
    omegas = np.concatenate([-pos[::-1], [0.0], pos])
    amps = rng.standard_normal(omegas.size) + 1j * rng.standard_normal(omegas.size)
    return ExpSum(omegas, amps, rng.standard_normal(3))


class TestExpSum:
    """Closed forms against independent Gauss-panel quadrature."""

    T = 1.3
    ts = np.linspace(0.0, 1.3, 23)

    def test_antiderivative(self, rng):
        f = random_expsum(rng)
        F = f.antiderivative()
        assert not np.any(F.omegas == 0.0)  # moved into the polynomial
        assert abs(F(0.0)) < 1e-14
        assert np.max(np.abs(F(self.ts) - panel_quadrature(f, self.ts))) < 1e-12

    def test_derivative(self, rng):
        f = random_expsum(rng)
        df = f.derivative()
        # df is O(omega_max) larger than f
        assert np.max(np.abs(panel_quadrature(df, self.ts)
                             - (f(self.ts) - f(0.0)))) < 1e-10

    def test_mean_and_t_moment(self, rng):
        f = random_expsum(rng)
        assert f.integral(self.T) == pytest.approx(
            panel_quadrature(f, self.T)[0], abs=1e-12)
        assert f.t_moment(self.T) == pytest.approx(
            panel_quadrature(lambda t: t * f(t), self.T)[0], abs=1e-12)

    def test_sum_and_scaling(self, rng):
        f = random_expsum(rng)
        g = random_expsum(rng)
        g = ExpSum(np.concatenate([f.omegas[:3], g.omegas]),
                   np.concatenate([g.amps[:3], g.amps]), g.poly[:2])
        s = f + g
        assert s.omegas.size == np.union1d(f.omegas, g.omegas).size
        assert (f + f).omegas.size == f.omegas.size
        assert np.max(np.abs(s(self.ts) - (f(self.ts) + g(self.ts)))) < 1e-12
        assert s.integral(self.T) == pytest.approx(
            panel_quadrature(s, self.T)[0], abs=1e-12)
        h = -2.5 * f
        assert np.max(np.abs(h(self.ts) + 2.5 * f(self.ts))) < 1e-12
        assert h.t_moment(self.T) == pytest.approx(
            panel_quadrature(lambda t: t * h(t), self.T)[0], abs=1e-11)

    def test_zero(self, rng):
        z = ExpSum.zero()
        f = random_expsum(rng)
        assert np.all(z(self.ts) == 0.0)
        assert z.integral(self.T) == 0.0 and z.t_moment(self.T) == 0.0
        assert np.all(z.antiderivative()(self.ts) == 0.0)
        assert np.all((f + z)(self.ts) == f(self.ts))
        u = ControlSignal.zero(self.T)
        assert u.closed_form and u.integral() == 0.0
        assert np.all(u.derivative(self.ts) == 0.0)

    def test_control_signal_is_exact(self, rng):
        f = random_expsum(rng)
        u = ControlSignal.from_function(f, self.T)
        assert u.closed_form
        assert u.integral() == pytest.approx(panel_quadrature(f, self.T)[0],
                                             abs=1e-12)
        assert np.max(np.abs(panel_quadrature(u.derivative, self.ts)
                             - (u(self.ts) - u(0.0)))) < 1e-10
        s = u + 3.0 * u
        assert s.closed_form and s.fn.omegas.size == f.omegas.size
        assert np.max(np.abs(s(self.ts) - 4.0 * f(self.ts))) < 1e-12
        assert np.max(np.abs(s.samples - 4.0 * u.samples)) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            ExpSum(np.zeros(2), np.zeros(3, dtype=complex), [0.0])


def test_free_evolution_phases(sys40):
    state = RadialState(np.ones(5))
    out = free_evolution(state, 0.3, sys40.lambdas)
    assert np.allclose(out.coeffs, np.exp(-1j * sys40.lambdas[:5] * 0.3))
    assert out.l2_norm() == pytest.approx(state.l2_norm())


def test_galerkin_build_requires_table_coverage(table):
    with pytest.raises(DomainError):
        GalerkinSystem.build(table.k_max + 1, table)


def test_coupling_matrix_in_system_is_symmetric(sys40):
    assert np.allclose(sys40.M, sys40.M.T)
    assert np.allclose(sys40.lambdas, np.sort(sys40.lambdas))


class TestSimulateBilinear:
    def test_unitarity(self, sys40, rng):
        c0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        state = RadialState(c0).normalize()
        u = bump_control(1.0, amp=0.5)
        res = simulate_bilinear(state, u, sys40, steps=2 ** 14)
        assert res.norm_drift() <= 1e-10

    def test_free_case_matches_phases(self, sys40):
        state = RadialState(np.ones(3) / np.sqrt(3))
        res = simulate_bilinear(state, ControlSignal.zero(0.01), sys40,
                                steps=4096)
        exact = free_evolution(RadialState(state.padded(40)), 0.01,
                               sys40.lambdas)
        assert np.linalg.norm(res.final.coeffs - exact.coeffs) < 1e-8

    def test_two_mode_exponential_oracle(self, table):
        # constant w on a 2-mode truncation has the exact propagator expm(-iTH)
        sys2 = GalerkinSystem.build(2, table)
        w0 = 0.3
        T = 0.05
        h = np.diag(sys2.lambdas) + w0 * sys2.M
        exact = expm(-1j * T * h) @ np.array([1.0, 0.0])
        w = ControlSignal(samples=np.full(64, w0), T=T,
                          fn=lambda t: np.full_like(np.asarray(t, float), w0))
        res = simulate_bilinear(RadialState([1.0, 0.0]), w, sys2, steps=4096)
        assert np.linalg.norm(res.final.coeffs - exact) < 1e-9

    def test_second_order_convergence(self, table, rng):
        sys5 = GalerkinSystem.build(5, table)
        state = RadialState((rng.standard_normal(5)
                             + 1j * rng.standard_normal(5))).normalize()
        u = bump_control(0.2, amp=1.0)
        ref = simulate_bilinear(state, u, sys5, steps=2 ** 14).final.coeffs
        errs = []
        for steps in (2 ** 8, 2 ** 9, 2 ** 10):
            out = simulate_bilinear(state, u, sys5, steps=steps).final.coeffs
            errs.append(np.linalg.norm(out - ref))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 3.0 < r < 5.0

    def test_duhamel_residual(self, table, rng):
        # psi(t) = e^{-i t L} psi0 - i int_0^t e^{-i(t-s)L} w(s) M psi(s) ds
        sys3 = GalerkinSystem.build(3, table)
        state = RadialState((rng.standard_normal(3)
                             + 1j * rng.standard_normal(3))).normalize()
        u = bump_control(0.1, amp=0.8)
        res = simulate_bilinear(state, u, sys3, steps=2 ** 12)
        t_end = res.times[-1]
        lam = sys3.lambdas
        w_vals = np.atleast_1d(u(res.times))
        integrand = np.exp(-1j * np.outer(t_end - res.times, lam)) \
            * (w_vals[:, None] * (res.states @ sys3.M.T))
        integral = np.trapezoid(integrand, res.times, axis=0)
        duhamel = np.exp(-1j * lam * t_end) * state.coeffs - 1j * integral
        assert np.linalg.norm(res.final.coeffs - duhamel) < 1e-5

    def test_resolution_warning(self, sys40):
        state = RadialState(np.ones(40)).normalize()
        with pytest.warns(UserWarning, match="resolution"):
            simulate_bilinear(state, ControlSignal.zero(1.0), sys40, steps=64)

    def test_step_validation(self, sys40):
        with pytest.raises(DomainError):
            simulate_bilinear(RadialState([1.0]), ControlSignal.zero(1.0),
                              sys40, steps=1)


class TestSimulateLinearized:
    def test_rejects_inadmissible(self, sys40, params):
        v = ControlSignal.from_function(lambda t: np.asarray(t) ** 2, 1.0)
        with pytest.raises(AdmissibilityError):
            simulate_linearized(v, params, sys40)

    def test_zero_control_zero_endpoint(self, sys40, params):
        out = simulate_linearized(ControlSignal.zero(1.0), params, sys40)
        assert out.l2_norm() == 0.0

    def test_matches_forced_galerkin_run(self, sys40, params):
        # independent check: the linearized endpoint equals the endpoint of
        # the zero-potential Galerkin system forced by v'(t) M psi_ref(t)
        T = 1.0
        amp = 1e-3
        fn = lambda t: amp * np.sin(2 * np.pi * np.asarray(t) / T) ** 2 \
            * np.sin(6 * np.pi * np.asarray(t) / T)
        v = ControlSignal.from_function(fn, T)
        # make it exactly admissible by construction checks
        dfn = lambda t: amp * (
            2 * np.pi / T * np.sin(4 * np.pi * np.asarray(t) / T)
            * np.sin(6 * np.pi * np.asarray(t) / T)
            + 6 * np.pi / T * np.sin(2 * np.pi * np.asarray(t) / T) ** 2
            * np.cos(6 * np.pi * np.asarray(t) / T))
        v = ControlSignal.from_function(fn, T, dfn=dfn)
        assert v.is_h10_admissible()
        end = simulate_linearized(v, params, sys40)

        wts = params.weights()

        def forcing(ts):
            ts = np.atleast_1d(ts)
            dv = v.derivative(ts)
            ref = wts[None, :] * np.exp(-1j * np.outer(ts, sys40.lambdas[:3]))
            return dv[:, None] * (ref @ sys40.M[:, :3].T)

        res = simulate_bilinear(RadialState(np.zeros(40, complex)),
                                ControlSignal.zero(T), sys40,
                                steps=2 ** 14, forcing=forcing)
        assert np.linalg.norm(res.final.coeffs - end.coeffs) \
            < 1e-3 * max(end.l2_norm(), 1e-12) + 1e-12

    def test_linearity(self, sys40, params):
        v = bump_control(1.0, amp=1e-3)
        # sin(2 pi t) has zero mean and endpoints, so it is admissible
        out1 = simulate_linearized(v, params, sys40)
        out2 = simulate_linearized(2.0 * v, params, sys40)
        assert np.linalg.norm(out2.coeffs - 2 * out1.coeffs) \
            < 1e-12 * out1.l2_norm() + 1e-15
