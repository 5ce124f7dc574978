"""Frequency sets, the Gram system and the constrained moment solver."""

import numpy as np
import pytest

from discsteer import (FrequencySet, GalerkinSystem, MomentProblem,
                       RadialState, TargetParams, build_frequencies, build_rhs,
                       dynamics, gamma_tilde, gram_matrix, moment_residuals,
                       solve_moment)
from discsteer.dynamics import _oscillatory_nodes
from discsteer.errors import (AdmissibilityError, ConditioningError,
                              DomainError)
from discsteer.moment import _int_exp, _int_t_exp


def test_gamma_tilde(table):
    lam = table.lambdas(3)
    gt = gamma_tilde(table)
    assert gt == pytest.approx(min(lam[2] - lam[1], lam[1] - lam[0]))
    assert 24 < gt < 25.5


class TestFrequencySet:
    def test_counting(self, table):
        assert build_frequencies(table, 2).K == 2
        assert build_frequencies(table, 4).K == 7  # 1 + (3 + 2 + 1)
        assert build_frequencies(table, 10).K == 1 + 9 + 8 + 7

    def test_sorted_with_tags(self, table):
        freqs = build_frequencies(table, 6)
        assert freqs.omegas[0] == 0.0
        assert freqs.origins[0] is None
        assert np.all(np.diff(freqs.omegas) > 0)
        lam = table.lambdas(6)
        for w, o in zip(freqs.omegas, freqs.origins):
            if o is not None:
                n, p = o
                assert w == pytest.approx(lam[n - 1] - lam[p - 1])

    def test_first_gap_is_packet_gap(self, table):
        freqs = build_frequencies(table, 6)
        assert freqs.omegas[1] == pytest.approx(gamma_tilde(table))

    def test_rejects_nonincreasing(self):
        with pytest.raises(DomainError):
            FrequencySet(omegas=[0.0, 1.0, 1.0], origins=(None, (2, 1), (3, 1)))

    def test_rejects_negative(self):
        # the negative frequencies are the extension's, never the set's
        with pytest.raises(DomainError, match="nonnegative"):
            FrequencySet(omegas=[-30.0, 0.0, 25.0, 60.0],
                         origins=(None, None, (2, 1), (3, 1)))

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="at least one"):
            FrequencySet(omegas=[], origins=())

    @pytest.mark.parametrize("n_max", [0, -5, 65])
    def test_build_rejects_mode_count_outside_table(self, table, n_max):
        with pytest.raises(DomainError, match="must lie in 1..64"):
            build_frequencies(table, n_max)

    def test_truncate(self, table):
        freqs = build_frequencies(table, 8)
        assert freqs.truncate(5).K == 5


def test_nonresonance_small(table):
    assert build_frequencies(table, 10).min_gap() > 0


def test_nonresonance_exhaustive_oracle(table500):
    # brute-force pairwise minimum against the package value
    gap = build_frequencies(table500, 60).min_gap()
    lam = table500.lambdas(60)
    vals = [0.0]
    for p in (1, 2, 3):
        vals += [lam[n - 1] - lam[p - 1] for n in range(p + 1, 61)]
    vals = np.sort(vals)
    assert gap == pytest.approx(float(np.min(np.diff(vals))))
    assert gap > 1e-6


def test_nonresonance_lemma(table500):
    """The minimum gap over all n is attained at small indices.

    Lemma: if delta_k = lambda_{k+1} - lambda_k increases in k, two gap
    frequencies (n, p) and (m, q) with n > m differ by at least
    (lambda_n - lambda_m) - (lambda_3 - lambda_1) >= delta_{n-1} - (lambda_3
    - lambda_1). Frequencies with n = m differ by lambda_q - lambda_p, a
    difference that n = 4 already has, and 0 lies below (n, p) by at least
    delta_{n-1}. So once delta_c - (lambda_3 - lambda_1) reaches the minimum
    gap of the frequencies with n <= c, no index beyond c can lower it.

    delta_k increases because j_{0,k+1} - j_{0,k} does (for |nu| < 1/2) and
    j_{0,k+1} + j_{0,k} does. That holds for every k by Watson, "A Treatise on
    the Theory of Bessel Functions" (2nd ed., 1944), ch. 15, and Lorch &
    Szego, "Higher monotonicity properties of certain Sturm-Liouville
    functions", Acta Math. 109 (1963); the test checks it to k = 500.
    """
    j = table500.row(0)
    lam = j ** 2
    assert np.all(np.diff(np.diff(j)) > 0) and np.all(np.diff(j) < np.pi)
    delta = np.diff(lam)  # delta[k - 1] = lambda_{k+1} - lambda_k
    assert np.all(np.diff(delta) > 0)

    spread = lam[2] - lam[0]
    cut = next(c for c in range(4, 500)
               if delta[c - 1] - spread >= build_frequencies(table500, c).min_gap())
    assert cut == 4
    gap = build_frequencies(table500, cut).min_gap()
    assert gap == build_frequencies(table500, 500).min_gap()
    assert gap == pytest.approx(4.9505, abs=1e-4)


class TestGram:
    def test_closed_form_integrals(self):
        T = 1.3
        alphas = np.array([0.0, 2.0, -5.7])
        ts = np.linspace(0, T, 20001)
        for a, exact in zip(alphas, _int_exp(alphas, T)):
            num = np.trapezoid(np.exp(1j * a * ts), ts)
            assert exact == pytest.approx(num, abs=1e-7)
        for a, exact in zip(alphas, _int_t_exp(alphas, T)):
            num = np.trapezoid(ts * np.exp(1j * a * ts), ts)
            assert exact == pytest.approx(num, abs=1e-7)

    def test_single_zero_frequency(self):
        freqs = FrequencySet(omegas=[0.0], origins=(None,))
        g = gram_matrix(freqs, 2.0, with_time_element=False)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(2.0)

    def test_harmonic_orthogonality(self):
        # frequencies on the 2 pi / T grid give a diagonal Gram block
        T = 1.0
        freqs = FrequencySet(omegas=2 * np.pi * np.arange(1, 4),
                             origins=((2, 1), (3, 1), (4, 1)))
        g = gram_matrix(freqs, T, with_time_element=False)
        assert np.max(np.abs(g - T * np.eye(6))) < 1e-14

    def test_hermitian_positive_definite(self, table):
        freqs = build_frequencies(table, 12).truncate(30)
        g = gram_matrix(freqs, 2 * np.pi / gamma_tilde(table))
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(g)
        assert eigs[0] > 0

    @pytest.mark.parametrize("T", [1.5, 2.0, 4.0])
    def test_ingham_lower_frame_bound(self, table500, T):
        """Ingham's inequality in the form of Komornik & Loreti, *Fourier
        Series in Control Theory* (2005), ch. 4: if a family satisfies
        omega_{k+1} - omega_k >= gamma > 0 and |I| > 2 pi / gamma, then
        int_I |sum a_k e^{i omega_k t}|^2 dt
            >= (2 |I| / pi) (1 - 4 pi^2 / (|I|^2 gamma^2)) sum |a_k|^2.
        The lowest Gram eigenvalue m is the best such constant on I = [0, T].
        The extended family (-omega, 0, omega) has the gap gamma = 4.9505 of
        `min_gap()` at every K, so T > 2 pi / gamma = 1.269 and the bound
        holds uniformly in K; m itself settles as K grows.
        """
        ms = []
        for K in (12, 40, 160):
            freqs = build_frequencies(table500, K)
            gamma = freqs.min_gap()
            assert gamma == pytest.approx(4.9505, abs=1e-4)
            g = gram_matrix(freqs, T, with_time_element=False)
            ms.append(np.linalg.eigvalsh(g)[0])
            assert ms[-1] >= (2 * T / np.pi) * (1 - 4 * np.pi ** 2 / (T * gamma) ** 2)
        assert max(ms) - min(ms) <= 1e-4 * min(ms)


class TestSolveMoment:
    def test_homogeneous_gives_zero(self, table):
        freqs = build_frequencies(table, 5)
        prob = MomentProblem(freqs=freqs, d=np.zeros(freqs.K), T=1.0)
        sol = solve_moment(prob)
        assert np.max(np.abs(sol.signal.samples)) < 1e-12

    def test_residuals_and_reality(self, table, rng):
        freqs = build_frequencies(table, 8)
        d = rng.standard_normal(freqs.K) + 1j * rng.standard_normal(freqs.K)
        d[freqs.omegas == 0.0] = np.abs(d[freqs.omegas == 0.0])
        prob = MomentProblem(freqs=freqs, d=d, T=1.0)
        sol = solve_moment(prob)
        res = moment_residuals(sol.signal, prob)
        assert np.max(np.abs(res)) < 1e-8
        # reality: the signal function itself has no imaginary part
        ts = np.linspace(0, 1.0, 1001)
        w_ts = sol.signal.fn(ts)
        assert np.max(np.abs(np.imag(w_ts))) < 1e-10

    @pytest.mark.parametrize("entries", [dynamics.PHASE_BLOCK_ENTRIES, 2 ** 12])
    def test_residual_blocks_match_one_array(self, table, rng, monkeypatch,
                                             entries):
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_ENTRIES", entries)
        freqs = build_frequencies(table, 20)
        d = rng.standard_normal(freqs.K) + 1j * rng.standard_normal(freqs.K)
        d[freqs.omegas == 0.0] = np.abs(d[freqs.omegas == 0.0])
        prob = MomentProblem(freqs=freqs, d=d, T=1.0)
        signal = solve_moment(prob).signal
        nodes, weights = _oscillatory_nodes(1.0, float(freqs.omegas[-1]))
        assert nodes.size * freqs.K > entries  # two blocks or more
        w = signal(nodes)
        phases = np.exp(1j * np.multiply.outer(freqs.omegas, nodes))
        moments = phases @ (weights * w)
        want = np.concatenate([moments - d, [np.sum(weights * nodes * w)]])
        got = moment_residuals(signal, prob)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(moments))

    def test_diagnostics_recorded(self, table):
        freqs = build_frequencies(table, 5)
        prob = MomentProblem(freqs=freqs, d=np.zeros(freqs.K), T=1.0)
        sol = solve_moment(prob)
        for key in ("condition_number", "gram_min_eig", "gram_max_eig",
                    "max_residual"):
            assert key in sol.diagnostics

    @pytest.mark.parametrize("n_max, T, cond", [
        (25, 1e-4, "inf"),   # a tiny horizon with many frequencies
        (20, 0.15, "inf"),   # smallest eigenvalue -6e-17
        (12, 0.2, "3.0"),    # 3.06e12, positive definite but over cond_limit
    ], ids=["tiny-horizon", "negative-eigenvalue", "over-cond-limit"])
    def test_conditioning_guard(self, table, n_max, T, cond):
        # the condition check is all that stands before the solve divides by
        # the eigenvalues, so it refuses a non-positive one and a large ratio
        freqs = build_frequencies(table, n_max)
        prob = MomentProblem(freqs=freqs, d=np.zeros(freqs.K), T=T)
        with pytest.raises(ConditioningError, match=f"condition number {cond}"):
            solve_moment(prob)

    def test_problem_validation(self, table):
        freqs = build_frequencies(table, 4)
        with pytest.raises(DomainError):
            MomentProblem(freqs=freqs, d=np.zeros(freqs.K - 1), T=1.0)
        d = np.zeros(freqs.K, dtype=complex)
        d[0] = 1j  # omega_0 = 0 must carry real data
        with pytest.raises(DomainError):
            MomentProblem(freqs=freqs, d=d, T=1.0)


def random_tangent_target(params, T, lam, n_modes, n_support, rng, norm=1e-2):
    c = np.zeros(n_modes, dtype=complex)
    c[:n_support] = rng.standard_normal(n_support) \
        + 1j * rng.standard_normal(n_support)
    c *= norm / np.linalg.norm(c)
    packet = params.weights() * np.exp(-1j * lam[:3] * T)
    c[:3] -= np.real(np.sum(c[:3] * np.conj(packet))) * packet
    return RadialState(c)


class TestBuildRhs:
    def test_zero_target_zero_data(self, table, sys40, params):
        freqs = build_frequencies(table, 10)
        psif = RadialState(np.zeros(40, dtype=complex))
        prob = build_rhs(psif, params, 1.0, sys40, freqs)
        assert np.all(prob.d == 0)

    def test_single_high_mode(self, table, sys40, params):
        T = 1.0
        freqs = build_frequencies(table, 10)
        eps = 1e-3
        c = np.zeros(40, dtype=complex)
        c[4] = eps  # mode 5 only; trivially tangent
        prob = build_rhs(RadialState(c), params, T, sys40, freqs)
        lam = sys40.lambdas
        wts = params.weights()
        nonzero = {o for o, v in zip(freqs.origins, prob.d) if abs(v) > 0}
        assert nonzero == {(5, 1), (5, 2), (5, 3)}
        for i, o in enumerate(freqs.origins):
            if o in nonzero:
                n, p = o
                expect = 1j * wts[p - 1] * eps * np.exp(1j * lam[4] * T) \
                    / sys40.M[4, p - 1]
                assert prob.d[i] == pytest.approx(expect)

    def test_endpoint_identity(self, table, sys40, params, rng):
        # independent check of the data table: if every moment of w equals
        # d, the explicit linearized endpoint reproduces the target exactly
        T = 1.0
        freqs = build_frequencies(table, 10)
        target = random_tangent_target(params, T, sys40.lambdas, 40, 10, rng)
        prob = build_rhs(target, params, T, sys40, freqs)
        lam = sys40.lambdas
        wts = params.weights()
        lookup = {o: v for o, v in zip(freqs.origins, prob.d)}

        def moment_of(omega):
            if omega == 0.0:
                return 0.0
            for o, v in lookup.items():
                if o is None:
                    continue
                n, p = o
                if abs(lam[n - 1] - lam[p - 1] - omega) < 1e-9:
                    return v
                if abs(lam[n - 1] - lam[p - 1] + omega) < 1e-9:
                    return np.conj(v)
            raise AssertionError(f"frequency {omega} not covered")

        for k in range(1, 11):
            total = 0.0
            for p in (1, 2, 3):
                total += wts[p - 1] * sys40.M[k - 1, p - 1] \
                    * moment_of(lam[k - 1] - lam[p - 1])
            endpoint = -1j * np.exp(-1j * lam[k - 1] * T) * total
            assert endpoint == pytest.approx(target.coeffs[k - 1], abs=1e-12)

    def test_c_constant_is_real(self, table, sys40, params, rng):
        # the shared constant in the low-frequency data comes from a purely
        # imaginary combination whenever the target is tangent
        from discsteer.moment import build_rhs as _build
        T = 1.0
        freqs = build_frequencies(table, 6)
        for _ in range(10):
            target = random_tangent_target(params, T, sys40.lambdas, 40, 6, rng)
            wts = params.weights()
            lam = sys40.lambdas
            phase = np.exp(1j * lam * T)
            c = target.coeffs
            rhs_c = wts[0] * c[0] * phase[0] + wts[1] * np.conj(c[1]) / phase[1] \
                + wts[2] * np.conj(c[2]) / phase[2]
            assert abs(rhs_c.real) < 1e-14
            _build(target, params, T, sys40, freqs)  # must not raise

    def test_rejects_non_tangent(self, table, sys40, params):
        freqs = build_frequencies(table, 6)
        c = np.zeros(40, dtype=complex)
        c[0] = 1e-3  # real component along the packet at T=0 phase
        T = 1.0
        packet = params.weights() * np.exp(-1j * sys40.lambdas[:3] * T)
        c[:3] = 1e-3 * packet  # exactly along the packet: maximally non-tangent
        with pytest.raises(AdmissibilityError):
            build_rhs(RadialState(c), params, T, sys40, freqs)

    def test_rejects_uncovered_modes(self, table, sys40, params):
        freqs = build_frequencies(table, 6)
        c = np.zeros(40, dtype=complex)
        c[9] = 1e-3  # mode 10, beyond the n_max=6 coverage
        with pytest.raises(DomainError):
            build_rhs(RadialState(c), params, 1.0, sys40, freqs)

    def test_rejects_partly_covered_mode(self, table, sys40, params):
        # truncate(30) drops (12, 1) alone, the largest of the 31 frequencies
        # up to mode 12; the other two pairs would steer about half of mode 12
        freqs = build_frequencies(table, 12).truncate(30)
        c = np.zeros(40, dtype=complex)
        c[11] = 1e-3
        with pytest.raises(DomainError, match=r"mode 12 is beyond the frequency "
                           r"coverage: origins \[\(12, 1\)\] are missing"):
            build_rhs(RadialState(c), params, 1.0, sys40, freqs)


def test_end_to_end_moment_pipeline(table, sys40, params, rng):
    # build data for a random tangent target, solve, verify by quadrature
    T = 1.0
    freqs = build_frequencies(table, 10)
    target = random_tangent_target(params, T, sys40.lambdas, 40, 10, rng)
    prob = build_rhs(target, params, T, sys40, freqs)
    sol = solve_moment(prob)
    res = moment_residuals(sol.signal, prob)
    assert np.max(np.abs(res)) < 1e-8
    assert sol.diagnostics["condition_number"] < 1e4
