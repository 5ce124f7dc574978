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

ZERO_RESIDUAL_MAX = 1.0e-11

# a zero is converged once a Newton step moves it by at most a few ulp
_NEWTON_STEP_MIN = 4 * np.finfo(float).eps
# bisection alone reaches one ulp of any bracket below 1e6 in about 55 steps
_NEWTON_ITERS_MAX = 100


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

    Every stored zero z satisfies |J_nu(z)| <= ZERO_RESIDUAL_MAX, the fixed
    certification bound, not an accuracy the zeros were refined to.
    """

    nu_max: int
    k_max: int
    zeros: dict = field(repr=False)

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

    def lambdas(self, count: int) -> np.ndarray:
        """Radial Dirichlet eigenvalues lambda_k = j_{0,k}^2, k <= count."""
        if not 0 <= count <= self.k_max:
            raise DomainError(f"{count} eigenvalues: need 0 <= count <= k_max = {self.k_max}")
        return np.array([self.zeros[(0, k)] for k in range(1, count + 1)]) ** 2

    def to_json(self, path) -> None:
        entries = [{"nu": nu, "k": k, "value": v}
                   for (nu, k), v in sorted(self.zeros.items())]
        with open(path, "w") as fh:
            json.dump({"zeros": entries}, fh, indent=1)

    @classmethod
    def from_json(cls, path) -> "ZeroTable":
        """Read the zeros of a table file; other keys, like an old tol, are ignored."""
        with open(path) as fh:
            payload = json.load(fh)
        try:
            zeros = {(e["nu"], e["k"]): e["value"] for e in payload["zeros"]}
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
        nu_max = max(nu for nu, _ in zeros)
        k_max = max(k for _, k in zeros)
        if len(zeros) != len(payload["zeros"]) or len(zeros) != (nu_max + 1) * k_max:
            raise DomainError(f"zero table {path}: every (nu, k) with nu <= {nu_max} "
                              f"and k <= {k_max} must appear exactly once")
        return cls(nu_max=nu_max, k_max=k_max, zeros=zeros)


def compute_zeros(nu_max: int, k_max: int) -> ZeroTable:
    """Compute a certified table of Bessel zeros, one vectorised pass per order.

    Each row's zeros lie between consecutive points of one array of ends.
    Row 0 holds n0 = k_max + nu_max zeros. Its ends are beta_k = (k - 1/4) pi,
    closed by beta_{n0} + pi/8; McMahon's expansion (DLMF 10.21(vi)) gives
    beta_k < j_{0,k} < beta_k + 1/(8 beta_k) < beta_{k+1}, so each bracket
    holds exactly its own zero, started from beta + 1/(8 beta). The ends of
    row nu >= 1 are the zeros of row nu - 1, and the interlacing j_{nu-1,k} <
    j_{nu,k} < j_{nu-1,k+1} (Watson 1944, ch. 15) puts exactly one zero in
    each bracket, started from the rows already computed (the midpoint for
    nu = 1, linear extrapolation in nu for nu = 2, quadratic for nu >= 3).
    Newton on J_nu, with J_nu' = (nu/z) J_nu - J_{nu+1}, refines every row at
    once; a step that leaves its bracket bisects it.

    Every bracket is checked for a sign change of J_nu, and every zero
    certified by |J_nu(z)| <= ZERO_RESIDUAL_MAX; either failure raises
    ConvergenceError naming (nu, k). Raises DomainError for invalid bounds, or
    when row 0's last end (k_max + nu_max - 1/8) pi would exceed X_MAX_SUPPORTED.
    """
    if nu_max < 0 or nu_max > NU_MAX_SUPPORTED:
        raise DomainError(f"nu_max={nu_max} outside [0, {NU_MAX_SUPPORTED}]")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    n0 = k_max + nu_max
    if (n0 - 0.125) * np.pi > X_MAX_SUPPORTED:
        raise DomainError(f"zero j_(0,{n0}), needed for a table of {nu_max + 1} "
                          f"orders and {k_max} zeros, would exceed the supported "
                          f"argument range [0, {X_MAX_SUPPORTED}]")
    beta = (np.arange(1, n0 + 1) - 0.25) * np.pi
    rows = [_refine_row(0, np.append(beta, beta[-1] + 0.125 * np.pi),
                        beta + 0.125 / beta)]
    for nu in range(1, nu_max + 1):
        n = rows[-1].size - 1
        if nu == 1:
            start = 0.5 * (rows[0][:-1] + rows[0][1:])
        elif nu == 2:
            start = 2.0 * rows[1][:n] - rows[0][:n]
        else:
            start = 3.0 * (rows[-1][:n] - rows[-2][:n]) + rows[-3][:n]
        rows.append(_refine_row(nu, rows[-1], start))
    zeros = {(nu, k): z for nu, row in enumerate(rows)
             for k, z in enumerate(row[:k_max].tolist(), start=1)}
    return ZeroTable(nu_max=nu_max, k_max=k_max, zeros=zeros)


def _refine_row(nu: int, ends: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The zeros of J_nu in the brackets (ends[k], ends[k+1]), Newton from `start`.

    J_nu is evaluated once at each end: consecutive brackets share theirs.
    A bracket whose ends do not change sign, a zero that does not converge
    within _NEWTON_ITERS_MAX steps, and a zero whose residual exceeds
    ZERO_RESIDUAL_MAX each raise ConvergenceError naming (nu, k).
    """
    f = special.jv(nu, ends)
    bad = np.flatnonzero(f[:-1] * f[1:] >= 0)
    if bad.size:
        k = bad[0]
        raise ConvergenceError(f"zero j_({nu},{k + 1}): J_{nu} does not change "
                               f"sign on its bracket ({ends[k]!r}, {ends[k + 1]!r})")
    lo, hi = ends[:-1].copy(), ends[1:].copy()  # shrunk in place
    z = np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))
    neg_lo = f[:-1] < 0
    active = np.arange(z.size)
    for _ in range(_NEWTON_ITERS_MAX):
        za = z[active]
        f = special.jv(nu, za)
        step = f / (nu / za * f - special.jv(nu + 1, za))
        # the iterate replaces the bracket end whose sign it shares
        below = (f < 0) == neg_lo[active]
        lo[active] = np.where(below, za, lo[active])
        hi[active] = np.where(below, hi[active], za)
        znew = za - step
        outside = ~((lo[active] <= znew) & (znew <= hi[active]))
        znew[outside] = 0.5 * (lo[active] + hi[active])[outside]
        z[active] = znew
        active = active[outside | (np.abs(step) > _NEWTON_STEP_MIN * za)]
        if not active.size:
            break
    else:
        raise ConvergenceError(f"zero j_({nu},{active[0] + 1}) did not converge "
                               f"in {_NEWTON_ITERS_MAX} Newton steps")
    bad = np.flatnonzero(np.abs(special.jv(nu, z)) > ZERO_RESIDUAL_MAX)
    if bad.size:
        raise ConvergenceError(f"zero j_({nu},{bad[0] + 1}) fails residual check")
    return z


def gauss_legendre_rule(order: int) -> tuple:
    """Gauss-Legendre (nodes, weights) with `order` nodes on (0, 1)."""
    if order < 1:
        raise DomainError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w
