"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Empirical fixture values (coupling bounds, Ingham constants, the Newton
residual) were recorded from a reference run and are enforced as regression
limits.
"""

import time
import warnings

import numpy as np
import pytest

from discsteer import (ControlSignal, GalerkinSystem, MomentProblem,
                       RadialState, SteeringProblem, bessel_j,
                       build_frequencies, control_from_radius, coupling_matrix,
                       endpoint_map, gamma_tilde, gauss_legendre_rule,
                       gram_matrix, integrate_control, moment_residuals,
                       radius_from_control, simulate_bilinear,
                       simulate_linearized, solve_moment, steer_local,
                       synthesize_linearized)
from discsteer.moment import build_rhs

warnings.filterwarnings("ignore", message="steps=.*below resolution")

T_DEFAULT = 1.0  # max(1, 2 pi / gamma_tilde) with gamma_tilde ~ 24.7

# regression fixtures (recorded once from a reference run)
COUPLING_BOUNDS = {1: (19.2391, 20.9448), 2: (44.1674, 72.4277),
                   3: (69.2561, 325.1898)}
INGHAM_M_LOWER = 4.292227429291456e-4
INGHAM_M_UPPER = 0.5372082928860468
NEWTON_RESIDUAL_FIXTURE = 1.3262057991600334e-06


def report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def tangent_perturbation(params, T, table, n_modes, n_support, rng,
                         norm=1e-2, decay=3.5):
    """Random target with Sobolev-decaying coefficients, projected tangent."""
    j = table.row(0)[:n_support]
    c = np.zeros(n_modes, dtype=complex)
    c[:n_support] = (rng.standard_normal(n_support)
                     + 1j * rng.standard_normal(n_support)) * j ** -decay
    lam = table.lambdas(3)
    packet = params.weights() * np.exp(-1j * lam * T)
    c[:3] -= np.real(np.sum(c[:3] * np.conj(packet))) * packet
    c *= norm / np.linalg.norm(c)
    return RadialState(c)


def test_criterion_01_bessel_certification(table):
    t0 = time.perf_counter()
    worst_zero = max(abs(bessel_j(nu, z)) for (nu, _), z in table.zeros.items())
    nodes, weights = gauss_legendre_rule(256)
    row = table.row(0)[:30]
    norms = np.abs([bessel_j(1, z) for z in row])
    vals = np.array([np.sqrt(2) * bessel_j(0, z * nodes) / n
                     for z, n in zip(row, norms)])
    gram = (vals * nodes * weights) @ vals.T
    worst_ortho = float(np.max(np.abs(gram - np.eye(30))))
    elapsed = time.perf_counter() - t0
    ok = worst_zero <= 1e-11 and worst_ortho <= 1e-9 and elapsed < 5.0
    report(1, "bessel zero certification and orthogonality", ok,
           f"(zero residual {worst_zero:.2e}, orthogonality {worst_ortho:.2e}, "
           f"{elapsed:.2f}s)")


def test_criterion_02_coupling_identity(table):
    t0 = time.perf_counter()
    nodes, weights = gauss_legendre_rule(256)
    row = table.row(0)[:40]
    j0_vals = np.array([bessel_j(0, z * nodes) for z in row])
    j1_vals = np.array([bessel_j(1, z) for z in row])
    worst = 0.0
    for k in range(2, 41):
        for l in range(1, k):
            quad = float(np.sum(nodes ** 3 * weights
                                * j0_vals[l - 1] * j0_vals[k - 1]))
            jl, jk = row[l - 1], row[k - 1]
            closed = 4 * jl * jk * j1_vals[l - 1] * j1_vals[k - 1] \
                / (jk ** 2 - jl ** 2) ** 2
            worst = max(worst, abs(quad - closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, "cubic-weight coupling closed form", ok,
           f"(max residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_coupling_bounds(table500):
    ok = True
    details = []
    # j_k^3 |<r^2 m_p, m_k>|, k = 4..200, from the matrix the pipeline uses
    scaled = table500.row(0)[3:200] ** 3 \
        * np.abs(coupling_matrix(200, table500)[:3, 3:])
    for p, vals in enumerate(scaled, start=1):
        lo, hi = COUPLING_BOUNDS[p]
        ok = ok and lo <= vals.min() and vals.max() <= hi and vals.min() > 0
        details.append(f"p={p}: [{vals.min():.4f}, {vals.max():.4f}]")
    report(3, "scaled coupling magnitude bounds", ok, "(" + "; ".join(details) + ")")


def test_criterion_04_nonresonance(table500):
    t0 = time.perf_counter()
    gap = build_frequencies(table500, 500).min_gap()
    elapsed = time.perf_counter() - t0
    ok = gap > 1e-6 and elapsed < 5.0
    report(4, "non-resonance of gap frequencies to n=500", ok,
           f"(min gap {gap:.3e}, {elapsed:.2f}s)")


def test_criterion_05_ingham_gram(table):
    gt = gamma_tilde(table)
    freqs = build_frequencies(table, 12).truncate(30)
    g = gram_matrix(freqs, 2 * np.pi / gt, with_time_element=False)
    eigs = np.linalg.eigvalsh(g)
    m, big = float(eigs[0]), float(eigs[-1])
    cond = big / m
    ok = m > 0 and cond < 1e8 \
        and abs(m - INGHAM_M_LOWER) <= 1e-10 \
        and abs(big - INGHAM_M_UPPER) <= 1e-10
    report(5, "Ingham frame bounds of the Gram matrix", ok,
           f"(m {m:.6e}, M {big:.6e}, cond {cond:.1f})")


def test_criterion_06_moment_solver(table):
    freqs = build_frequencies(table, 9).truncate(20)
    rng = np.random.default_rng(42)
    worst_res = worst_imag = worst_con = 0.0
    decay = 1.0 / np.arange(1, 21)
    for _ in range(20):
        d = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) * decay
        d[freqs.omegas == 0.0] = 0.0  # both vanishing-moment constraints
        prob = MomentProblem(freqs=freqs, d=d, T=T_DEFAULT)
        sol = solve_moment(prob)
        res = moment_residuals(sol.signal, prob)
        worst_res = max(worst_res, float(np.max(np.abs(res[:-1]))))
        worst_con = max(worst_con, abs(res[0]), abs(res[-1]))
        # reality of the coefficient representation, checked without the
        # final real() projection
        ts = np.linspace(0, T_DEFAULT, 501)
        w = sol.signal.fn
        w_c = np.exp(-1j * np.outer(ts, w.omegas)) @ w.amps + w.poly[1] * ts
        worst_imag = max(worst_imag, float(np.max(np.abs(w_c.imag))))
    ok = worst_res <= 1e-8 and worst_imag <= 1e-10 and worst_con <= 1e-8
    report(6, "moment solver on random data", ok,
           f"(residual {worst_res:.2e}, imag {worst_imag:.2e}, "
           f"constraints {worst_con:.2e})")


def test_criterion_07_norm_conservation(sys40):
    rng = np.random.default_rng(3)
    amps = 0.3 * rng.standard_normal(4)
    fn = lambda t: sum(a * np.sin(2 * np.pi * (k + 1) * np.asarray(t))
                       for k, a in enumerate(amps))
    w = ControlSignal.from_function(fn, T_DEFAULT)
    c0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    state = RadialState(c0).normalize()
    res = simulate_bilinear(state, w, sys40, steps=2 ** 14)
    drift = res.norm_drift()
    ok = drift <= 1e-10
    report(7, "discrete norm conservation", ok, f"(drift {drift:.2e})")


def test_criterion_08_linearized_steering(table, sys40, params):
    t0 = time.perf_counter()
    wts = params.weights()
    worst_lin = worst_gal = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        target = tangent_perturbation(params, T_DEFAULT, table, 40, 10, rng)
        prob = SteeringProblem(params=params, T=T_DEFAULT,
                               psi0=RadialState(np.zeros(40, dtype=complex)),
                               psif=target)
        v = synthesize_linearized(prob, 20, sys=sys40, table=table)
        end = simulate_linearized(v, params, sys40)
        nt = target.l2_norm()
        worst_lin = max(worst_lin,
                        np.linalg.norm(end.coeffs - target.coeffs) / nt)

        def forcing(ts, _v=v):
            ts = np.atleast_1d(ts)
            dv = _v.derivative(ts)
            ref = wts[None, :] * np.exp(-1j * np.outer(ts, sys40.lambdas[:3]))
            return dv[:, None] * (ref @ sys40.M[:, :3].T)

        galerkin = simulate_bilinear(RadialState(np.zeros(40, dtype=complex)),
                                     ControlSignal.zero(T_DEFAULT), sys40,
                                     steps=2 ** 15, forcing=forcing)
        worst_gal = max(worst_gal,
                        np.linalg.norm(galerkin.final.coeffs - target.coeffs)
                        / nt)
    elapsed = time.perf_counter() - t0
    ok = worst_lin <= 1e-4 and worst_gal <= 1e-3 and elapsed < 60.0
    report(8, "linearized steering endpoint accuracy", ok,
           f"(vs linearized {worst_lin:.2e}, vs Galerkin {worst_gal:.2e}, "
           f"{elapsed:.1f}s)")


def test_criterion_09_differential_consistency(sys40, params):
    rng = np.random.default_rng(11)
    psi0 = RadialState(params.weights()).padded(40)
    base = endpoint_map(ControlSignal.zero(T_DEFAULT), RadialState(psi0),
                        sys40, steps=2 ** 15)
    ratios = []
    worst_c = 0.0
    for _ in range(10):
        amps = rng.standard_normal(5)
        fn = lambda t, _a=amps: sum(
            a * np.sin(2 * np.pi * (k + 1) * np.asarray(t) / T_DEFAULT)
            for k, a in enumerate(_a))
        v = ControlSignal.from_function(fn, T_DEFAULT)
        v = (1.0 / v.max_abs()) * v  # unit-amplitude direction
        lin = simulate_linearized(v, params, sys40)
        errs = []
        for eps in (1e-3, 1e-4):
            plus = endpoint_map(eps * v, RadialState(psi0), sys40,
                                steps=2 ** 15)
            fd = (plus.coeffs - base.coeffs) / eps
            errs.append(np.linalg.norm(fd - lin.coeffs))
        ratios.append(errs[0] / errs[1])
        worst_c = max(worst_c, errs[0] / 1e-3, errs[1] / 1e-4)
    ratios = np.array(ratios)
    # first-order remainder: error ~ C eps, so the decade ratio is ~10;
    # C ~ 1.1 for unit-amplitude directions (recorded), bounded with margin
    ok = worst_c <= 2.0 and np.all((5 < ratios) & (ratios < 20))
    report(9, "endpoint map differential consistency", ok,
           f"(C {worst_c:.3f}, decade ratios {ratios.min():.1f}.."
           f"{ratios.max():.1f})")


def test_criterion_10_radius_round_trip():
    fn = lambda t: 0.1 * np.sin(2 * np.pi * np.asarray(t)) \
        - 0.04 * np.sin(4 * np.pi * np.asarray(t))
    u = ControlSignal.from_function(fn, T_DEFAULT, n_samples=8193)
    traj = radius_from_control(u, n_steps=8192)
    g_vals, u_vals = control_from_radius(traj)
    err = float(np.max(np.abs(u_vals - fn(np.clip(g_vals, 0, T_DEFAULT)))))
    end_err = max(abs(traj.radii[0] - 1.0), abs(traj.radii[-1] - 1.0))
    ok = err <= 1e-6 and end_err <= 1e-8
    report(10, "radius trajectory round trip", ok,
           f"(control error {err:.2e}, boundary radii {end_err:.2e})")


def test_criterion_11_local_nonlinear_steering(table, sys40, params):
    delta = 1e-3
    rng = np.random.default_rng(2024)
    c = np.zeros(40, dtype=complex)
    dec = np.arange(1, 7, dtype=float) ** -3.5
    c[:6] = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * dec
    packet = params.weights() * np.exp(-1j * sys40.lambdas[:3] * T_DEFAULT)
    c[:3] -= np.real(np.sum(c[:3] * np.conj(packet))) * packet
    c *= delta / np.linalg.norm(c)
    psi0 = RadialState(params.weights())
    free = endpoint_map(ControlSignal.zero(T_DEFAULT),
                        RadialState(psi0.padded(40)), sys40, steps=2 ** 14)
    psif = RadialState(free.coeffs + c)
    prob = SteeringProblem(params=params, T=T_DEFAULT, psi0=psi0, psif=psif)
    rep = steer_local(prob, iterations=1, K=12, sys=sys40, table=table,
                      steps=2 ** 14, tol=1e-12)
    residual = rep.residuals[-1]
    ok = residual <= 10 * delta ** 2 \
        and residual <= 2 * NEWTON_RESIDUAL_FIXTURE
    report(11, "one-step Newton quadratic remainder", ok,
           f"(residual {residual:.3e}, fixture {NEWTON_RESIDUAL_FIXTURE:.3e})")
