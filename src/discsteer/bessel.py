"""Bessel functions of the first kind, certified zero tables and weighted quadrature.

All inner products on the radial disc use the weight r on [0, 1]:
``<f, g> = int_0^1 f(r) conj(g(r)) r dr``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import special

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

    Every stored zero z satisfies |J_nu(z)| <= 10*tol; tol is the certification
    bound only, not an accuracy the zeros were refined to.
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
        """Radial Dirichlet eigenvalues lambda_k = j_{0,k}^2, k <= count."""
        n = self.k_max if count is None else count
        if n > self.k_max:
            raise DomainError(f"{n} eigenvalues need k_max >= {n}, got {self.k_max}")
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
        if not zeros:
            raise DomainError(f"zero table {path} holds no zeros")
        # JSON gives exact types: a bool is not an int here, nor a string a number
        for (nu, k), v in zeros.items():
            if not (type(nu) is int and nu >= 0 and type(k) is int and k >= 1
                    and type(v) in (int, float) and 0 < v < np.inf):
                raise DomainError(f"zero table {path}: entry nu={nu!r}, k={k!r}, "
                                  f"value={v!r} needs integers nu >= 0, k >= 1 "
                                  f"and a finite positive value")
        if not (type(tol) in (int, float) and 0 < tol <= 1e-6):
            raise DomainError(f"zero table {path}: tol={tol!r} must lie in (0, 1e-6]")
        nu_max = max(nu for nu, _ in zeros)
        k_max = max(k for _, k in zeros)
        if len(zeros) != len(payload["zeros"]) or len(zeros) != (nu_max + 1) * k_max:
            raise DomainError(f"zero table {path}: every (nu, k) with nu <= {nu_max} "
                              f"and k <= {k_max} must appear exactly once")
        return cls(nu_max=nu_max, k_max=k_max, zeros=zeros, tol=tol)


def compute_zeros(nu_max: int, k_max: int, tol: float = DEFAULT_ZERO_TOL) -> ZeroTable:
    """Compute a certified table of Bessel zeros.

    The zeros come from ``scipy.special.jn_zeros`` (Zhang & Jin's JYZO);
    ``tol`` is only the certification bound |J_nu(z)| <= 10*tol. Raises
    DomainError for invalid bounds, or when the k_max-th zero of order nu_max
    would exceed X_MAX_SUPPORTED (McMahon's estimate (k + nu/2 - 1/4) pi), and
    ConvergenceError if a zero fails the residual check.
    """
    if nu_max < 0 or nu_max > NU_MAX_SUPPORTED:
        raise DomainError(f"nu_max={nu_max} outside [0, {NU_MAX_SUPPORTED}]")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if not (0 < tol <= 1e-6):
        raise DomainError("tol must lie in (0, 1e-6]")
    if (k_max + nu_max / 2 - 0.25) * np.pi > X_MAX_SUPPORTED:
        raise DomainError(f"zero j_({nu_max},{k_max}) would exceed the supported "
                          f"argument range [0, {X_MAX_SUPPORTED}]")
    zeros = {}
    for nu in range(nu_max + 1):
        for k, z in enumerate(special.jn_zeros(nu, k_max).tolist(), start=1):
            if abs(special.jv(nu, z)) > 10 * tol:
                raise ConvergenceError(f"zero j_({nu},{k}) fails residual check")
            zeros[(nu, k)] = z
    return ZeroTable(nu_max=nu_max, k_max=k_max, zeros=zeros, tol=tol)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped onto (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_legendre_rule(order: int = 256) -> QuadratureRule:
    """Gauss-Legendre rule with `order` nodes on (0, 1)."""
    if order < 1:
        raise DomainError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(nodes=0.5 * (x + 1.0), weights=0.5 * w)
