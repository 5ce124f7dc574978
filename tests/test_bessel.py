"""Bessel evaluation, certified zero tables, and the weighted quadrature rule.

The reference oracle is a 200-term power series evaluated in 50-digit mpmath
arithmetic, entirely independent of the scipy implementation used in the
package.
"""

import json
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discsteer
from discsteer import ZeroTable, bessel_j, compute_zeros, gauss_legendre_rule
from discsteer.errors import DomainError

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
        assert np.allclose(lam, table.row(0)[:3] ** 2)
        # more eigenvalues than the table holds is refused, not truncated
        with pytest.raises(DomainError):
            table.lambdas(table.k_max + 1)
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
        with pytest.raises(DomainError):
            compute_zeros(0, 5, tol=1e-3)


class TestQuadrature:
    def test_polynomial_exactness(self):
        rule = gauss_legendre_rule(8)
        # int_0^1 r^n * r dr = 1/(n+2), exact up to degree 2*8-1 total
        for n in range(0, 12):
            val = np.sum(rule.nodes ** (n + 1) * rule.weights)
            assert val == pytest.approx(1.0 / (n + 2), rel=1e-14)

    def test_mode_orthogonality_identity(self, table, rule):
        # int_0^1 J_0(j_k r) J_0(j_l r) r dr = delta_kl J_1(j_k)^2 / 2
        row = table.row(0)
        for k in (1, 3, 10):
            for l in (1, 3, 10):
                zk, zl = row[k - 1], row[l - 1]
                fk, fl = bessel_j(0, zk * rule.nodes), bessel_j(0, zl * rule.nodes)
                val = np.sum(fk * fl * rule.nodes * rule.weights)
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
