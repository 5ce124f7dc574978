"""Bessel functions of the first kind, certified zero tables and weighted quadrature.

All inner products on the radial disc use the weight r on [0, 1]:
``<f, g> = int_0^1 f(r) conj(g(r)) r dr``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

NU_MAX_SUPPORTED = 64
X_MAX_SUPPORTED = 1.0e6

DEFAULT_ZERO_TOL = 1.0e-12


def bessel_j(nu: int, x) -> float:
    """J_nu(x) for integer nu >= 0; accepts scalars or arrays.

    Supported range: nu <= 64, 0 <= x <= 1e6. Absolute accuracy ~1e-12 or
    better over this range.
    """
    if nu < 0 or nu > NU_MAX_SUPPORTED:
        raise DomainError(f"order nu={nu} outside supported range [0, {NU_MAX_SUPPORTED}]")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > X_MAX_SUPPORTED):
        raise DomainError(f"argument outside supported range [0, {X_MAX_SUPPORTED}]")
    out = special.jv(nu, x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ZeroTable:
    """Positive zeros j_{nu,k} of J_nu for nu <= nu_max, 1 <= k <= k_max.

    Every stored zero z satisfies |J_nu(z)| <= 10*tol.
    """

    nu_max: int
    k_max: int
    zeros: dict = field(repr=False)
    tol: float = DEFAULT_ZERO_TOL

    def __getitem__(self, key) -> float:
        nu, k = key
        try:
            return self.zeros[(nu, k)]
        except KeyError:
            raise DomainError(f"zero (nu={nu}, k={k}) not in table "
                              f"(nu_max={self.nu_max}, k_max={self.k_max})") from None

    def row(self, nu: int) -> np.ndarray:
        """Zeros j_{nu,1..k_max} as an array."""
        return np.array([self[(nu, k)] for k in range(1, self.k_max + 1)])

    def lambdas(self, count: int | None = None) -> np.ndarray:
        """Radial Dirichlet eigenvalues lambda_k = j_{0,k}^2."""
        n = self.k_max if count is None else count
        return self.row(0)[:n] ** 2

    def to_json(self, path) -> None:
        entries = [{"nu": nu, "k": k, "value": v}
                   for (nu, k), v in sorted(self.zeros.items())]
        with open(path, "w") as fh:
            json.dump({"tol": self.tol, "zeros": entries}, fh, indent=1)

    @classmethod
    def from_json(cls, path) -> "ZeroTable":
        with open(path) as fh:
            payload = json.load(fh)
        try:
            zeros = {(e["nu"], e["k"]): e["value"] for e in payload["zeros"]}
            tol = payload["tol"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"zero table {path} is malformed ({exc!r})") from None
        nu_max = max(nu for nu, _ in zeros)
        k_max = max(k for _, k in zeros)
        return cls(nu_max=nu_max, k_max=k_max, zeros=zeros, tol=tol)


def _zeros_one_order(nu: int, k_max: int, tol: float) -> list:
    """Bracket and refine the first k_max zeros of J_nu.

    Sign changes are located by scanning upward from nu (zeros of J_nu exceed
    nu and are asymptotically pi-spaced), then polished with brentq.
    """
    f = lambda x: special.jv(nu, x)
    zeros = []
    # McMahon-type start; for larger orders the first zero sits near
    # nu + 1.86 nu^(1/3), so begin the scan below that.
    x = max(nu + 1e-3, 0.5)
    step = np.pi / 8
    fx = f(x)
    guard = 0
    while len(zeros) < k_max:
        x_next = x + step
        fx_next = f(x_next)
        if fx == 0.0:
            zeros.append(x)
            fx = fx_next
            x = x_next
            continue
        if np.sign(fx) != np.sign(fx_next):
            root = brentq(f, x, x_next, xtol=tol, rtol=4 * np.finfo(float).eps)
            zeros.append(root)
        x, fx = x_next, fx_next
        guard += 1
        if guard > 100000:
            raise ConvergenceError(f"zero scan for nu={nu} did not find {k_max} zeros")
    return zeros


def compute_zeros(nu_max: int, k_max: int, tol: float = DEFAULT_ZERO_TOL) -> ZeroTable:
    """Compute a certified table of Bessel zeros.

    Raises DomainError for invalid bounds and ConvergenceError if a bracket
    fails to isolate a sign change (which would indicate a bug).
    """
    if nu_max < 0 or nu_max > NU_MAX_SUPPORTED:
        raise DomainError(f"nu_max={nu_max} outside [0, {NU_MAX_SUPPORTED}]")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if not (0 < tol <= 1e-6):
        raise DomainError("tol must lie in (0, 1e-6]")
    zeros = {}
    for nu in range(nu_max + 1):
        for k, z in enumerate(_zeros_one_order(nu, k_max, tol), start=1):
            if abs(special.jv(nu, z)) > 10 * tol:
                raise ConvergenceError(f"refined zero j_({nu},{k}) fails residual check")
            zeros[(nu, k)] = z
    return ZeroTable(nu_max=nu_max, k_max=k_max, zeros=zeros, tol=tol)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped onto (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def gauss_legendre_rule(order: int = 256) -> QuadratureRule:
    """Gauss-Legendre rule with `order` nodes on (0, 1)."""
    if order < 1:
        raise DomainError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(nodes=0.5 * (x + 1.0), weights=0.5 * w, order=order)


def weighted_integral(f, rule: QuadratureRule):
    """int_0^1 f(r) r dr, with the weight r absorbed into the quadrature."""
    vals = np.asarray(f(rule.nodes))
    return np.sum(vals * rule.nodes * rule.weights, axis=-1)
