"""Trigonometric moment problem over Bessel eigenvalue gap frequencies.

The frequency set is ``{0} U {j_{0,n}^2 - j_{0,p}^2 : p=1,2,3, n >= p+1}``.
A real control derivative w on [0, T] is sought with prescribed moments
``int_0^T w(t) exp(i omega t) dt`` and ``int_0^T t w(t) dt = 0``; with the
zero-frequency moment ``int_0^T w = 0`` this makes v = int_0^t w an H^1_0
control of zero mean. The truncated problem is solved by minimum-L2-norm
inversion of the Gram matrix of the conjugate-symmetric exponential family
extended by t -> t, and the solution is that family's `ExpSum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .bessel import ZeroTable
from .dynamics import (ControlSignal, ExpSum, GalerkinSystem, _int_exp,
                       _int_t_exp, _oscillatory_nodes)
from .errors import AdmissibilityError, ConditioningError, DomainError
from .spectral import RadialState, TargetParams, wave_packet

TANGENT_TOL = 1e-8


def gamma_tilde(table: ZeroTable) -> float:
    """Within-packet gap min(j_{0,3}^2 - j_{0,2}^2, j_{0,2}^2 - j_{0,1}^2)."""
    lam = table.lambdas(3)
    return float(min(lam[2] - lam[1], lam[1] - lam[0]))


@dataclass(frozen=True)
class FrequencySet:
    """Strictly increasing frequencies with their (n, p) origin tags.

    The zero frequency carries the tag None. Origin (n, p) means
    j_{0,n}^2 - j_{0,p}^2.
    """

    omegas: np.ndarray
    origins: tuple

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        if np.any(np.diff(self.omegas) <= 0):
            raise DomainError("frequencies must be strictly increasing")

    @property
    def K(self) -> int:
        return self.omegas.size

    def min_gap(self) -> float:
        return float(np.min(np.diff(self.omegas))) if self.K > 1 else np.inf

    def truncate(self, count: int) -> "FrequencySet":
        return FrequencySet(self.omegas[:count], self.origins[:count])


def build_frequencies(table: ZeroTable, n_max: int) -> FrequencySet:
    """All gap frequencies up to mode n_max, sorted with origin tags."""
    if table.k_max < n_max:
        raise DomainError(f"zero table covers k <= {table.k_max}, need {n_max}")
    lam = table.lambdas(n_max)
    entries = [(0.0, None)]
    for p in (1, 2, 3):
        for n in range(p + 1, n_max + 1):
            entries.append((float(lam[n - 1] - lam[p - 1]), (n, p)))
    entries.sort(key=lambda e: e[0])
    omegas = np.array([e[0] for e in entries])
    gaps = np.diff(omegas)
    if np.any(gaps <= 10 * table.tol):
        i = int(np.argmin(gaps))
        raise DomainError(
            f"non-resonance violation: origins {entries[i][1]} and {entries[i + 1][1]} "
            f"collide (gap {gaps[i]:.3e})")
    return FrequencySet(omegas=omegas, origins=tuple(e[1] for e in entries))


def _symmetric_extension(omegas: np.ndarray):
    """(-omega_K .. -omega_1, [0,] omega_1 .. omega_K) and the mirror map."""
    pos = omegas[omegas > 0]
    has_zero = bool(np.any(omegas == 0.0))
    parts = [-pos[::-1]] + ([np.array([0.0])] if has_zero else []) + [pos]
    ext = np.concatenate(parts)
    mirror = np.arange(ext.size)[::-1]
    return ext, mirror


def gram_matrix(freqs: FrequencySet, T: float,
                with_time_element: bool = True) -> np.ndarray:
    """Hermitian Gram matrix of {t -> exp(-i omega t)} over the symmetric
    extension, optionally bordered by the element t -> t."""
    ext, _ = _symmetric_extension(freqs.omegas)
    n = ext.size + (1 if with_time_element else 0)
    g = np.empty((n, n), dtype=complex)
    diff = np.subtract.outer(ext, ext)
    g[:ext.size, :ext.size] = _int_exp(diff, T)
    if with_time_element:
        col = _int_t_exp(ext, T)  # <t, f_j> = int t exp(i omega_j t)
        g[:ext.size, -1] = col
        g[-1, :ext.size] = np.conj(col)
        g[-1, -1] = T ** 3 / 3.0
    return g


@dataclass(frozen=True)
class MomentProblem:
    """Prescribed moments d aligned with `freqs` and horizon T; the t-moment
    is always prescribed to be 0."""

    freqs: FrequencySet
    d: np.ndarray
    T: float

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        if self.d.size != self.freqs.K:
            raise DomainError("d must align with the frequency set")
        scale = max(float(np.max(np.abs(self.d))), 1.0)
        zero_idx = np.flatnonzero(self.freqs.omegas == 0.0)
        for i in zero_idx:
            if abs(self.d[i].imag) > 1e-12 * scale:
                raise DomainError("the zero-frequency moment d_0 must be real")


@dataclass(frozen=True)
class MomentSolution:
    """Minimum-norm solution w, an `ExpSum` in `signal.fn`."""

    signal: ControlSignal
    diagnostics: dict = field(compare=False)


def solve_moment(problem: MomentProblem,
                 cond_limit: float = 1e12) -> MomentSolution:
    """Solve the truncated moment problem by minimum-norm Gram inversion.

    The solution is expanded over the conjugate-symmetric exponential family
    plus t -> t, so it is real-valued by construction whenever d is extended
    conjugate-symmetrically.
    """
    T = problem.T
    omegas = problem.freqs.omegas
    ext, mirror = _symmetric_extension(omegas)
    # extend the data: d_{-k} = conj(d_k)
    pos_mask = omegas > 0
    d_pos = problem.d[pos_mask][np.argsort(omegas[pos_mask])]
    d_zero = problem.d[omegas == 0.0]
    parts = [np.conj(d_pos)[::-1]] + ([d_zero.real.astype(complex)]
                                      if d_zero.size else []) + [d_pos]
    d_ext = np.concatenate(parts)

    g = gram_matrix(problem.freqs, T)
    rhs = np.concatenate([d_ext, [0.0]])

    eigs = linalg.eigvalsh(g)
    m_eig, big_eig = float(eigs[0]), float(eigs[-1])
    cond = np.inf if m_eig <= 0 else big_eig / m_eig
    if cond > cond_limit:
        raise ConditioningError(
            f"Gram condition number {cond:.3e} exceeds {cond_limit:.1e} "
            f"(T={T}, K={problem.freqs.K}, min gap={problem.freqs.min_gap():.3e}); "
            "increase T or reduce K")
    try:
        x = linalg.cho_solve(linalg.cho_factor(g), rhs)
    except linalg.LinAlgError as exc:
        raise ConditioningError(
            f"Cholesky factorisation of the Gram matrix failed ({exc}; "
            f"T={T}, K={problem.freqs.K}); increase T or reduce K") from None

    # enforce the conjugate symmetry that exact arithmetic would give
    x_exp = x[:ext.size]
    x_exp = 0.5 * (x_exp + np.conj(x_exp[mirror]))
    signal = ControlSignal.from_function(
        ExpSum(ext, x_exp, [0.0, float(x[-1].real)]), T)
    residuals = moment_residuals(signal, problem)
    diagnostics = {
        "condition_number": float(cond),
        "gram_min_eig": m_eig,
        "gram_max_eig": big_eig,
        "max_residual": float(np.max(np.abs(residuals))),
    }
    return MomentSolution(signal=signal, diagnostics=diagnostics)


def moment_residuals(signal: ControlSignal, problem: MomentProblem) -> np.ndarray:
    """Residuals of all prescribed moments, the t-moment last, by independent
    high-order quadrature.

    This is the oracle for `solve_moment`: it only evaluates the signal at
    composite Gauss-Legendre nodes and never uses the closed-form integrals
    of an `ExpSum`, so an error in that algebra cannot cancel against itself.
    """
    T = problem.T
    omega_max = float(problem.freqs.omegas[-1]) if problem.freqs.K else 1.0
    nodes, weights = _oscillatory_nodes(T, omega_max)
    w_vals = np.atleast_1d(signal(nodes))
    phases = np.exp(1j * np.multiply.outer(problem.freqs.omegas, nodes))
    moments = phases @ (weights * w_vals)
    return np.concatenate([moments - problem.d,
                           [np.sum(weights * nodes * w_vals)]])


def build_rhs(psi_f: RadialState, params: TargetParams, T: float,
              sys: GalerkinSystem, freqs: FrequencySet) -> MomentProblem:
    """Moment data steering the linearised system from 0 to psi_f at time T.

    psi_f must lie in the tangent space of the unit sphere at the reference
    wave packet, and its mode support must be covered by the frequency set.
    """
    lam = sys.lambdas
    n_max = max((o[0] for o in freqs.origins if o is not None), default=0)
    coeffs = psi_f.padded(sys.N)
    if psi_f.n_modes > sys.N and np.any(psi_f.coeffs[sys.N:] != 0):
        raise DomainError("target state exceeds the Galerkin truncation")
    if n_max < sys.N and np.any(np.abs(coeffs[n_max:]) > 0):
        raise DomainError("target has modes beyond the frequency coverage")

    wts = params.weights()
    packet = wave_packet(params, T, lam)  # reference coefficients at T
    tangent = float(np.real(np.sum(coeffs[:3] * np.conj(packet))))
    scale = max(psi_f.l2_norm(), 1.0)
    if abs(tangent) > TANGENT_TOL * scale:
        raise AdmissibilityError(
            f"target violates the tangent-space condition (Re<psi_f, packet> = "
            f"{tangent:.3e})")

    a2, a3 = sys.M[1, 0], sys.M[2, 0]
    b3 = sys.M[2, 1]
    sq1, sq2, sq3 = wts
    f1, f2, f3 = coeffs[0], coeffs[1], coeffs[2]
    phase = np.exp(1j * lam * T)

    rhs_c = sq1 * f1 * phase[0] + sq2 * np.conj(f2) / phase[1] \
        + sq3 * np.conj(f3) / phase[2]
    # tangent condition makes rhs_c purely imaginary, so Re C is real
    c_const = complex(rhs_c / (2j * b3 * sq2 * sq3)).real

    d = np.zeros(freqs.K, dtype=complex)
    for i, origin in enumerate(freqs.origins):
        if origin is None:
            d[i] = 0.0
            continue
        n, p = origin
        if (n, p) == (2, 1):
            d[i] = (1j * f2 * phase[1] - sq3 * b3 * np.conj(c_const)) / (a2 * sq1)
        elif (n, p) == (3, 1):
            d[i] = (1j * f3 * phase[2] - sq2 * b3 * c_const) / (a3 * sq1)
        elif (n, p) == (3, 2):
            d[i] = c_const
        else:
            coupling = sys.M[n - 1, p - 1]
            d[i] = 1j * wts[p - 1] * coeffs[n - 1] * phase[n - 1] / coupling
    return MomentProblem(freqs=freqs, d=d, T=T)
