"""Independent endpoint references for the benchmark.

Nothing here calls a propagator of `discsteer.dynamics`. The bilinear
reference is Strang splitting of ``i c' = diag(lambda) c + w(t) M c`` with M
diagonalised once, extrapolated by Richardson over three step counts; the
forced reference is the Duhamel integral of a piecewise-linear forcing,
evaluated in closed form interval by interval; the linearised reference is
the same Duhamel integral for the packet forcing, by Gauss-Legendre panels.
Each reference is checked against a closed form by `self_check`.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg


def _strang(c0, lambdas, q, d, theta, h):
    """Strang steps of size h with coupling phases theta[n] = h * w(t_mid_n)."""
    steps = theta.size
    half = np.exp(-0.5j * lambdas * h)
    full = half * half
    rot = np.exp(-1j * np.multiply.outer(theta, d))  # (steps, N)
    qt = q.T.copy()
    c = half * c0
    for n in range(steps):
        c = q @ (rot[n] * (qt @ c))
        c = (full if n + 1 < steps else half) * c
    return c


def bilinear_endpoint(c0, lambdas, M, w, T, steps):
    """Reference endpoint of the bilinear system and its own error estimate.

    `w` maps an array of times to the potential coefficient. Strang splitting
    at `steps`, 2*steps and 4*steps is extrapolated twice by Richardson; the
    returned error estimate is the distance between the two extrapolants,
    which bounds the error of the coarser one. Callers whose `w` is only
    piecewise smooth must choose `steps` so that every step lies inside one
    smooth piece.
    """
    d, q = linalg.eigh(M)
    lam = np.asarray(lambdas, dtype=float)
    c0 = np.asarray(c0, dtype=complex)
    levels = []
    for n in (steps, 2 * steps, 4 * steps):
        h = T / n
        theta = h * np.asarray(w((np.arange(n) + 0.5) * h), dtype=float)
        levels.append(_strang(c0, lam, q, d, theta, h))
    r1 = (4.0 * levels[1] - levels[0]) / 3.0
    r2 = (4.0 * levels[2] - levels[1]) / 3.0
    return r2, float(np.linalg.norm(r2 - r1))


def _phi(x, order):
    """h-scaled integrals int_0^1 s^order exp(i x s) ds for order 0 and 1."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 0.5
    xs = x[small]
    # Taylor series sum_m (i x)^m / (m! (m + order + 1)), 25 terms
    acc = np.zeros(xs.shape, dtype=complex)
    term = np.ones(xs.shape, dtype=complex)
    for m in range(25):
        acc += term / (m + order + 1)
        term = term * (1j * xs) / (m + 1)
    out[small] = acc
    xl = x[~small]
    e = np.exp(1j * xl)
    if order == 0:
        out[~small] = (e - 1.0) / (1j * xl)
    else:
        out[~small] = e / (1j * xl) - (e - 1.0) / (1j * xl) ** 2
    return out


def forced_endpoint(lambdas, f_samples, T):
    """Duhamel endpoint c(T) = -i int_0^T exp(-i Lambda (T - s)) f(s) ds.

    `f_samples` is an (S, N) array of forcing values on a uniform grid of S
    points over [0, T]; the forcing between samples is linear, so every
    interval integral is exact up to rounding.
    """
    f = np.asarray(f_samples, dtype=complex)
    intervals = f.shape[0] - 1
    h = T / intervals
    lam = np.asarray(lambdas, dtype=float)
    starts = np.arange(intervals) * h
    e0 = h * _phi(lam * h, 0)                        # int exp(i l tau)
    e1 = h * h * _phi(lam * h, 1)                    # int tau exp(i l tau)
    slope = (f[1:] - f[:-1]) / h                     # (intervals, N)
    base = np.exp(1j * np.multiply.outer(starts, lam))
    total = np.sum(base * (f[:-1] * e0 + slope * e1), axis=0)
    return -1j * np.exp(-1j * lam * T) * total


def linearized_endpoint(dv, lambdas, M, weights, T):
    """Endpoint of the system linearised around the three-mode packet.

    c_k(T) = -i e^{-i l_k T} sum_p w_p M_kp int_0^T v'(s) e^{i (l_k - l_p) s} ds,
    the Duhamel integral of the forcing v'(t) M phi(t), by 20-point
    Gauss-Legendre panels at most 4 radians of the fastest phase wide.
    """
    lam = np.asarray(lambdas, dtype=float)
    panels = int(np.ceil(T * (lam[-1] - lam[0]) / 4.0))
    x, wq = np.polynomial.legendre.leggauss(20)
    h = T / panels
    nodes = ((np.arange(panels)[:, None] + 0.5 * (x[None, :] + 1.0)) * h).ravel()
    weighted = np.tile(0.5 * h * wq, panels) * np.asarray(dv(nodes), dtype=float)
    out = np.zeros(lam.size, dtype=complex)
    for p in range(3):
        integrals = np.exp(1j * np.multiply.outer(lam - lam[p], nodes)) @ weighted
        out += weights[p] * M[:, p] * integrals
    return -1j * np.exp(-1j * lam * T) * out


def self_check(lambdas, M, rng, T=1.0):
    """Check both references against closed forms; returns a dict of errors.

    Constant w: the endpoint is expm(-i (Lambda + w M) T) c0. Linear forcing
    f(s) = a + b s, and the packet forcing with v'(s) = cos(nu s): the
    Duhamel integrals have the closed forms computed below.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    c0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * np.arange(1, n + 1) ** -2.0
    c0 /= np.linalg.norm(c0)
    w0 = 0.7
    exact = linalg.expm(-1j * (np.diag(lam) + w0 * M) * T) @ c0
    ref, own = bilinear_endpoint(c0, lam, M, lambda t: np.full(np.shape(t), w0),
                                 T, 1024)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ts = np.linspace(0.0, T, 3)
    duhamel = forced_endpoint(lam, a[None, :] + b[None, :] * ts[:, None], T)
    # -i int_0^T e^{-i l (T - s)} (a + b s) ds with u = T - s
    e = np.exp(-1j * lam * T)
    i0 = (1.0 - e) / (1j * lam)                       # int_0^T e^{-i l u} du
    i1 = (1.0 - e) / (1j * lam) ** 2 - T * e / (1j * lam)  # int_0^T u e^{-i l u} du
    closed = -1j * (a * i0 + b * (T * i0 - i1))
    # v'(s) = cos(nu s): int_0^T cos(nu s) e^{i alpha s} ds in closed form;
    # 40 modes, the truncation the linearised reference serves
    nu, wts = 7.0, np.array([0.5, 0.5, 0.5 ** 0.5])
    lam40, m40 = lam[:40], M[:40, :40]
    lin = linearized_endpoint(lambda s: np.cos(nu * s), lam40, m40, wts, T)
    lin_closed = np.zeros(lam40.size, dtype=complex)
    for p in range(3):
        alpha = lam40 - lam40[p]
        integral = sum((np.exp(1j * (alpha + sg * nu) * T) - 1.0)
                       / (2j * (alpha + sg * nu)) for sg in (1.0, -1.0))
        lin_closed += wts[p] * m40[:, p] * integral
    lin_closed *= -1j * np.exp(-1j * lam40 * T)
    return {
        "bilinear_vs_expm": float(np.linalg.norm(ref - exact)),
        "bilinear_own_err": own,
        "forced_vs_closed_form": float(np.linalg.norm(duhamel - closed)
                                       / np.linalg.norm(closed)),
        "linearized_vs_closed_form": float(np.linalg.norm(lin - lin_closed)
                                           / np.linalg.norm(lin_closed)),
    }
