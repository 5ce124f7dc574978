"""Bessel evaluation, certified zero tables, and the weighted quadrature rule.

The reference oracle is a 200-term power series evaluated in 50-digit mpmath
arithmetic, entirely independent of the scipy implementation used in the
package. The zero tables are also checked against mpmath's besseljzero and
against scipy's jn_zeros, which finds its zeros by a different route from the
package's bracketed Newton solver.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import discsteer
from discsteer import (ZeroTable, bessel, bessel_j, compute_zeros,
                       gauss_legendre_rule)
from discsteer.errors import ConvergenceError, DomainError

def series_j(nu, x, terms=200):
    """Power series J_nu(x) = sum_m (-1)^m (x/2)^(2m+nu) / (m! (m+nu)!).

    The alternating sum cancels to O(e^x) before settling, so the working
    precision scales with the argument.
    """
    with mpmath.workdps(40 + int(abs(x))):
        x = mpmath.mpf(x)
        half = x / 2
        total = mpmath.mpf(0)
        for m in range(terms):
            term = (-1) ** m * half ** (2 * m + nu) \
                / (mpmath.factorial(m) * mpmath.factorial(m + nu))
            total += term
        return float(total)


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 5])
def test_bessel_against_series(nu):
    for x in [0.0, 0.5, 1.0, 2.404, 7.0, 13.3, 25.0, 40.0]:
        assert bessel_j(nu, x) == pytest.approx(series_j(nu, x), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(nu=st.integers(min_value=0, max_value=5),
       x=st.floats(min_value=0.0, max_value=45.0))
def test_bessel_series_property(nu, x):
    assert abs(bessel_j(nu, x) - series_j(nu, x)) < 1e-11


def test_bessel_vectorized():
    x = np.linspace(0, 10, 7)
    out = bessel_j(0, x)
    assert out.shape == x.shape
    assert out[0] == pytest.approx(1.0)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(65, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -0.5)
    with pytest.raises(DomainError):
        bessel_j(0, 2e6)


class TestZeroTable:
    def test_first_zeros_match_reference(self, table, table500):
        # j_{0,1}, j_{0,2}, j_{1,1} to 12 digits (mpmath besseljzero oracle),
        # then far out in k and at the highest supported order
        assert table[(0, 1)] == pytest.approx(
            float(mpmath.besseljzero(0, 1)), abs=1e-11)
        assert table[(0, 2)] == pytest.approx(
            float(mpmath.besseljzero(0, 2)), abs=1e-11)
        assert table[(1, 1)] == pytest.approx(
            float(mpmath.besseljzero(1, 1)), abs=1e-11)
        assert table500[(0, 500)] == pytest.approx(
            float(mpmath.besseljzero(0, 500)), abs=1e-11)
        high = compute_zeros(64, 64)
        for k in (1, 64):
            assert high[(64, k)] == pytest.approx(
                float(mpmath.besseljzero(64, k)), abs=1e-11)

    def test_residual_certification(self, table):
        for (nu, _), z in table.zeros.items():
            assert abs(series_j(nu, z, terms=300)) <= 1e-11

    def test_every_zero_is_the_one_its_index_names(self):
        """Each zero z of `compute_zeros(1, 500)` is j_{nu,k}, not just a
        point of small residual.

        1. A zero lies within 4e-16 relative of z: J_nu changes sign across
           z(1 -+ 4e-16), and J_nu is continuous. J_nu is evaluated by mpmath
           at 30 digits; its precision is trusted, not interval-verified.
        2. That zero of J_0 is j_{0,k}: with beta = (k - 1/4) pi, McMahon's
           expansion j_{0,k} = beta + 1/(8 beta) - 31/(384 beta^3) + ...
           (Watson 1944, ch. 15) puts every j_{0,m} in
           I_m = (beta_m, beta_m + 1/(8 beta_m)); these intervals are
           disjoint and ordered, so the one zero in I_k is j_{0,k}. No
           remainder bound of the expansion is cited, so the index rests on
           this enclosure. Its upper slack is 2.1e-11 at k = 500 and falls
           to rounding near k = 1000, hence the table stops at 500.
        3. That zero of J_1 is j_{1,k}: the positive zeros of J_0 and J_1
           interlace, j_{0,k} < j_{1,k} < j_{0,k+1} (Watson 1944, ch. 15, by
           Rolle's theorem on (J_0)' = -J_1 and (x J_1)' = x J_0), so exactly
           one zero of J_1 lies between consecutive zeros of J_0, and none
           below j_{0,1}. For k = 500, beta_501 < j_{0,501} stands in for
           the next zero.
        """
        tab = compute_zeros(1, 500)
        with mpmath.workdps(30):
            eps, quarter = mpmath.mpf("4e-16"), mpmath.mpf(1) / 4
            lo, hi = {}, {}
            for key, z in tab.zeros.items():
                z = mpmath.mpf(z)
                lo[key], hi[key] = z * (1 - eps), z * (1 + eps)
                assert mpmath.besselj(key[0], lo[key]) \
                    * mpmath.besselj(key[0], hi[key]) < 0, key
            beta = [(k - quarter) * mpmath.pi for k in range(1, 502)]
            for k in range(1, 501):
                assert beta[k - 1] < lo[(0, k)] \
                    and hi[(0, k)] < beta[k - 1] + 1 / (8 * beta[k - 1]), k
                next0 = lo[(0, k + 1)] if k < 500 else beta[500]
                assert hi[(0, k)] < lo[(1, k)] and hi[(1, k)] < next0, k

    @pytest.mark.parametrize("nu_max, k_max, ulps", [(3, 64, 2), (1, 500, 2),
                                                     (64, 64, 8)])
    def test_agrees_with_jn_zeros(self, nu_max, k_max, ulps):
        # scipy's jn_zeros (Zhang & Jin's JYZO) is an independent oracle:
        # it starts and refines its zeros by another route
        tab = compute_zeros(nu_max, k_max)
        for nu in range(nu_max + 1):
            ref = special.jn_zeros(nu, k_max)
            assert np.all(np.abs(tab.row(nu) - ref) <= ulps * np.spacing(ref)), nu

    def test_bracket_without_sign_change(self, monkeypatch):
        # |J_nu| above 8 leaves the third bracket of row nu, and every later
        # one, without a sign change: (beta_3, beta_4) = (2.75 pi, 3.75 pi)
        # for j_{0,3}, and (j_{0,3}, j_{0,4}) for j_{1,3}
        for nu in (0, 1):
            def jv(order, x):
                out = special.jv(order, x)
                return np.where(x > 8.0, np.abs(out), out) if order == nu else out

            monkeypatch.setattr(bessel, "special", SimpleNamespace(jv=jv))
            with pytest.raises(ConvergenceError, match=rf"j_\({nu},3\).*sign"):
                compute_zeros(1, 5)

    def test_each_bracket_end_evaluated_once(self, monkeypatch):
        # a row's first J_nu call takes all n + 1 ends of its n brackets, in
        # increasing order: beta_k = (k - 1/4) pi closed by beta_{n0} + pi/8
        # for row 0, the zeros of row nu - 1 for row nu >= 1
        nu_max, k_max = 3, 10
        first, row = {}, []
        refine = bessel._refine_row

        def refine_row(nu, *args):
            row.append(nu)
            return refine(nu, *args)

        def jv(order, x):
            if order == row[-1] and order not in first:
                first[order] = np.array(x, copy=True)
            return special.jv(order, x)

        monkeypatch.setattr(bessel, "_refine_row", refine_row)
        monkeypatch.setattr(bessel, "special", SimpleNamespace(jv=jv))
        tab = compute_zeros(nu_max, k_max)
        n0 = k_max + nu_max
        beta = (np.arange(1, n0 + 1) - 0.25) * np.pi
        assert np.array_equal(first[0], np.append(beta, beta[-1] + np.pi / 8))
        for nu in range(1, nu_max + 1):
            ends = first[nu]
            assert ends.size == n0 - nu + 1, nu
            assert np.array_equal(ends[:k_max], tab.row(nu - 1)), nu
        for ends in first.values():
            assert np.all(np.diff(ends) > 0)

    def test_strictly_increasing_and_interlaced(self, table):
        for nu in range(table.nu_max + 1):
            row = table.row(nu)
            assert np.all(np.diff(row) > 0)
        # zeros of consecutive orders interlace: j_{nu,k} < j_{nu+1,k} < j_{nu,k+1}
        for nu in range(table.nu_max):
            a, b = table.row(nu), table.row(nu + 1)
            assert np.all(a[:-1] < b[:-1])
            assert np.all(b[:-1] < a[1:])

    def test_gaps_approach_pi(self, table):
        gaps = np.diff(table.row(0))
        assert abs(gaps[-1] - np.pi) < 1e-3
        assert abs(gaps[0] - np.pi) < 0.35

    def test_lambdas(self, table):
        lam = table.lambdas(3)
        assert np.array_equal(lam, table.row(0)[:3] ** 2)
        # more eigenvalues than the table holds is refused, not truncated,
        # and a negative count does not slice from the end of the row
        with pytest.raises(DomainError):
            table.lambdas(table.k_max + 1)
        with pytest.raises(DomainError):
            table.lambdas(-1)
        with pytest.raises(DomainError):
            compute_zeros(0, 1).lambdas(3)

    def test_missing_entry(self, table):
        with pytest.raises(DomainError):
            table[(0, table.k_max + 1)]

    def test_json_round_trip(self, table, tmp_path):
        path = tmp_path / "zeros.json"
        table.to_json(path)
        back = ZeroTable.from_json(path)
        assert back.nu_max == table.nu_max
        assert back.k_max == table.k_max
        assert back.zeros == table.zeros
        # file is plain structured JSON
        payload = json.loads(path.read_text())
        assert {"nu", "k", "value"} <= set(payload["zeros"][0])

    def test_compute_zeros_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            compute_zeros(-1, 5)
        with pytest.raises(DomainError):
            compute_zeros(0, 0)


class TestQuadrature:
    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre_rule(8)
        # int_0^1 r^n * r dr = 1/(n+2), exact up to degree 2*8-1 total
        for n in range(0, 12):
            val = np.sum(nodes ** (n + 1) * weights)
            assert val == pytest.approx(1.0 / (n + 2), rel=1e-14)

    def test_mode_orthogonality_identity(self, table, rule):
        # int_0^1 J_0(j_k r) J_0(j_l r) r dr = delta_kl J_1(j_k)^2 / 2
        nodes, weights = rule
        row = table.row(0)
        for k in (1, 3, 10):
            for l in (1, 3, 10):
                zk, zl = row[k - 1], row[l - 1]
                fk, fl = bessel_j(0, zk * nodes), bessel_j(0, zl * nodes)
                val = np.sum(fk * fl * nodes * weights)
                expect = bessel_j(1, zk) ** 2 / 2 if k == l else 0.0
                assert val == pytest.approx(expect, abs=1e-12)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(0)


def test_import_leaves_out_optimize_and_integrate():
    # both pull in scipy.sparse, spatial and fft: about 18 MB of RSS
    code = ("import sys, discsteer; print(sorted(m for m in sys.modules if "
            "m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'integrate'])))")
    # the child imports the same discsteer as this process, installed or not
    src = os.path.dirname(os.path.dirname(discsteer.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
