"""Radial states, reference targets, Sobolev norms and coupling coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discsteer import (RadialState, TargetParams, coupling_matrix, hs_norm,
                       mode, wave_packet)
from discsteer.errors import DomainError


class TestRadialState:
    def test_norm_and_normalize(self):
        s = RadialState([3.0, 4.0j])
        assert s.l2_norm() == pytest.approx(5.0)
        assert RadialState(s.normalize().coeffs).l2_norm() == pytest.approx(1.0)
        with pytest.raises(DomainError):
            RadialState([0.0]).normalize()

    def test_padded(self):
        s = RadialState([1.0, 2.0])
        assert np.array_equal(s.padded(4), [1, 2, 0, 0])
        assert np.array_equal(RadialState([1.0, 2.0, 0.0]).padded(2), [1, 2])
        # a cut may only drop zeros
        with pytest.raises(DomainError, match="beyond the truncation N=1"):
            s.padded(1)

    def test_json_round_trip(self, tmp_path):
        s = RadialState([1 + 2j, -0.5])
        path = tmp_path / "state.json"
        s.to_json(path)
        back = RadialState.from_json(path)
        assert np.allclose(back.coeffs, s.coeffs)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=8))
    def test_padding_preserves_norm(self, coeffs):
        s = RadialState(coeffs)
        assert np.linalg.norm(s.padded(len(coeffs) + 5)) \
            == pytest.approx(s.l2_norm())


class TestTargetParams:
    def test_domain(self):
        p = TargetParams(0.25, 0.25)
        assert p.theta1 == pytest.approx(0.5)
        assert np.allclose(p.weights() ** 2, [0.5, 0.25, 0.25])
        for bad in [(0.0, 0.5), (0.5, 0.0), (0.6, 0.4), (-0.1, 0.5)]:
            with pytest.raises(DomainError):
                TargetParams(*bad)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-6, 0.999), st.floats(1e-6, 0.999))
    def test_weights_unit_norm_when_admissible(self, t2, t3):
        if t2 + t3 < 1:
            p = TargetParams(t2, t3)
            assert np.sum(p.weights() ** 2) == pytest.approx(1.0)
        else:
            with pytest.raises(DomainError):
                TargetParams(t2, t3)


def test_modes_orthonormal(table, rule):
    vals = np.array([mode(k, rule.nodes, table) for k in range(1, 11)])
    gram = (vals * rule.nodes * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(10))) < 1e-12


def test_mode_vanishes_at_boundary(table):
    assert abs(mode(1, 1.0, table)) < 1e-10
    assert abs(mode(7, 1.0, table)) < 1e-9


def test_hs_norm(table):
    s = RadialState([1.0, 1.0])
    j = table.row(0)[:2]
    assert hs_norm(s, 0, table) == pytest.approx(np.sqrt(2))
    assert hs_norm(s, 3, table) == pytest.approx(np.sqrt(j[0] ** 6 + j[1] ** 6))
    with pytest.raises(DomainError):
        hs_norm(s, -1, table)


def test_wave_packet(table, params):
    lam = table.lambdas(5)
    packet = wave_packet(params, 0.7, lam)
    assert packet.shape == (3,)
    assert np.linalg.norm(packet) == pytest.approx(1.0)
    assert np.allclose(packet, params.weights() * np.exp(-1j * lam[:3] * 0.7))


def test_wave_packet_needs_three_eigenvalues(table, params):
    with pytest.raises(DomainError, match="at least 3 eigenvalues"):
        wave_packet(params, 0.7, table.lambdas(2))


class TestCoupling:
    def test_closed_form_matches_quadrature(self, table, rule):
        # every entry, diagonal included, against one vectorised quadrature
        m = coupling_matrix(40, table)
        vals = np.array([mode(k, rule.nodes, table) for k in range(1, 41)])
        quad = (vals * rule.nodes ** 3 * rule.weights) @ vals.T
        assert np.max(np.abs(m - quad)) < 1e-12

    def test_sign_alternation(self, table):
        # sign(J_1(j_{0,k})) alternates, so coupling(1, k) alternates with k
        m = coupling_matrix(12, table)
        for k in range(2, 12):
            assert np.sign(m[0, k - 1]) == (-1) ** (k - 1)

    def test_symmetry(self, table):
        m = coupling_matrix(8, table)
        assert m[1, 6] == m[6, 1]

    def test_diagonal_in_unit_interval(self, table):
        m = coupling_matrix(40, table)
        for k in (1, 2, 10, 40):
            assert 0 < m[k - 1, k - 1] < 1

    def test_spectrum_in_unit_interval(self, table500):
        # M compresses multiplication by r^2 in (0, 1), so 0 < M < I: the
        # bilinear resolution heuristic bounds |w M| by max|w| on this
        for n in (1, 3, 40, 320):
            eigs = np.linalg.eigvalsh(coupling_matrix(n, table500))
            assert 0 < eigs[0] and eigs[-1] < 1, (n, eigs[0], eigs[-1])

    def test_diagonal_closed_form(self, table, rule):
        # <r^2 m_k, m_k> = 1/3 - 2/(3 j_k^2) via the standard J_0 moments
        m = coupling_matrix(8, table)
        for k in (1, 3, 8):
            jk = table[(0, k)]
            quad = np.sum(rule.nodes ** 3 * mode(k, rule.nodes, table) ** 2
                          * rule.weights)
            assert quad == pytest.approx(1.0 / 3.0 - 2.0 / (3.0 * jk ** 2),
                                         abs=1e-12)
            assert m[k - 1, k - 1] == pytest.approx(quad, abs=1e-12)

    def test_matrix_symmetric(self, table, rule):
        m = coupling_matrix(40, table)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) > 0)
        for l, k in [(1, 2), (1, 5), (2, 3), (3, 9), (5, 20)]:
            quad = np.sum(rule.nodes ** 3 * mode(l, rule.nodes, table)
                          * mode(k, rule.nodes, table) * rule.weights)
            assert m[k - 1, l - 1] == pytest.approx(quad, abs=1e-12)

    def test_decay_rate(self, table):
        # |<r^2 m_1, m_k>| ~ 8 j_1 / j_k^3 for large k
        m = coupling_matrix(50, table)
        j1 = table[(0, 1)]
        for k in (30, 50):
            jk = table[(0, k)]
            v = abs(m[0, k - 1])
            assert v == pytest.approx(8 * j1 * jk / (jk ** 2 - j1 ** 2) ** 2)
            assert v * jk ** 3 == pytest.approx(8 * j1, rel=0.05)
