"""Radial Fourier-Bessel states, Sobolev norms, reference targets and couplings.

The normalised radial modes are ``m_k(r) = sqrt(2) J_0(j_{0,k} r) / |J_1(j_{0,k})|``
so that ``<m_k, m_l> = int_0^1 m_k m_l r dr = delta_{kl}``. All coefficient
sequences below are taken against this basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bessel import ZeroTable, bessel_j
from .errors import DomainError


@dataclass(frozen=True)
class RadialState:
    """Truncated coefficient vector of a radial wave function, modes 1..N."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalize(self) -> "RadialState":
        n = self.l2_norm()
        if n == 0:
            raise DomainError("cannot normalize the zero state")
        return RadialState(self.coeffs / n)

    def padded(self, n: int) -> np.ndarray:
        """Coefficients zero-extended to length n, or cut to it where only
        zeros are cut; a nonzero mode beyond n raises `DomainError`."""
        if np.any(self.coeffs[n:] != 0):
            raise DomainError("the state has a nonzero mode beyond the "
                              f"truncation N={n}")
        out = np.zeros(n, dtype=complex)
        m = min(n, self.n_modes)
        out[:m] = self.coeffs[:m]
        return out

    def to_json(self, path) -> None:
        pairs = [[float(c.real), float(c.imag)] for c in self.coeffs]
        with open(path, "w") as fh:
            json.dump(pairs, fh)

    @classmethod
    def from_json(cls, path) -> "RadialState":
        """Read a JSON list of [re, im] pairs of finite numbers."""
        with open(path) as fh:
            pairs = json.load(fh)
        try:
            data = np.array(pairs, dtype=float)
        except (TypeError, ValueError):
            data = np.zeros(0)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError(f"state file {path} must hold a list of [re, im] pairs")
        if not np.all(np.isfinite(data)):
            raise DomainError(f"state file {path} holds a non-finite coefficient")
        return cls(data[:, 0] + 1j * data[:, 1])


@dataclass(frozen=True)
class TargetParams:
    """Weights (theta2, theta3) of the three-mode reference state.

    Both must be positive with theta2 + theta3 < 1; the boundary is excluded
    because the linearisation degenerates there.
    """

    theta2: float
    theta3: float

    def __post_init__(self):
        if not (self.theta2 > 0 and self.theta3 > 0
                and self.theta2 + self.theta3 < 1):
            raise DomainError(
                f"(theta2, theta3)=({self.theta2}, {self.theta3}) must satisfy "
                "theta2, theta3 > 0 and theta2 + theta3 < 1")

    @property
    def theta1(self) -> float:
        return 1.0 - self.theta2 - self.theta3

    def weights(self) -> np.ndarray:
        """(sqrt(theta1), sqrt(theta2), sqrt(theta3))."""
        return np.sqrt([self.theta1, self.theta2, self.theta3])


def mode(k: int, r, table: ZeroTable):
    """Normalised radial eigenfunction m_k evaluated at r in [0, 1]."""
    z = table[(0, k)]
    return np.sqrt(2.0) * bessel_j(0, np.asarray(r, dtype=float) * z) / abs(bessel_j(1, z))


def hs_norm(state: RadialState, s: float, table: ZeroTable) -> float:
    """Spectral Sobolev norm (sum_k |j_{0,k}^s c_k|^2)^(1/2); s=0 is the L2 norm."""
    if s < 0:
        raise DomainError("s must be >= 0")
    j = table.row(0)[:state.n_modes]
    if state.n_modes > table.k_max:
        raise DomainError("state truncation exceeds zero table range")
    return float(np.sqrt(np.sum(np.abs(j ** s * state.coeffs) ** 2)))


def wave_packet(params: TargetParams, tau: float, lambdas) -> np.ndarray:
    """Coefficients sqrt(theta_p) e^{-i lambda_p tau}, p = 1..3, of the
    reference state evolved freely to time tau; `lambdas` are the
    eigenvalues, of which the first three are used."""
    lam = np.asarray(lambdas)[:3]
    if lam.size < 3:
        raise DomainError(f"the wave packet needs at least 3 eigenvalues, "
                          f"got {lam.size}")
    return params.weights() * np.exp(-1j * lam * tau)


def coupling_matrix(n: int, table: ZeroTable) -> np.ndarray:
    """Symmetric n x n matrix M_{kl} = <r^2 m_l, m_k> (1-based mode indices).

    Closed form throughout: off the diagonal
    (-1)^(k+l) 8 j_{0,k} j_{0,l} / (j_{0,k}^2 - j_{0,l}^2)^2, the sign being
    sign(J_1(j_{0,k}) J_1(j_{0,l})) with sign(J_1(j_{0,k})) = (-1)^(k-1); on
    the diagonal 1/3 - 2/(3 j_{0,k}^2).
    """
    j = np.array([table[(0, k)] for k in range(1, n + 1)])
    sign = (-1.0) ** np.arange(n)
    diff = np.subtract.outer(j ** 2, j ** 2)
    np.fill_diagonal(diff, 1.0)
    m = np.outer(sign, sign) * 8.0 * np.outer(j, j) / diff ** 2
    np.fill_diagonal(m, 1.0 / 3.0 - 2.0 / (3.0 * j ** 2))
    return m
