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
    return float(np.min(np.diff(table.lambdas(3))))


@dataclass(frozen=True)
class FrequencySet:
    """At least one nonnegative, strictly increasing frequency, each with its
    (n, p) origin tag.

    The zero frequency carries the tag None. Origin (n, p) means
    j_{0,n}^2 - j_{0,p}^2.
    """

    omegas: np.ndarray
    origins: tuple

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        if self.omegas.ndim != 1 or self.omegas.size == 0:
            raise DomainError("a frequency set needs at least one frequency")
        if np.any(self.omegas < 0):
            raise DomainError("frequencies must be nonnegative; the negative "
                              "ones come from the conjugate-symmetric extension")
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
    if not 1 <= n_max <= table.k_max:
        raise DomainError(f"n_max={n_max} must lie in 1..{table.k_max}, the "
                          "modes of the zero table")
    lam = table.lambdas(n_max).tolist()
    tags = [None] + [(n, p) for p in (1, 2, 3) for n in range(p + 1, n_max + 1)]
    values = np.array([0.0] + [lam[n - 1] - lam[p - 1] for n, p in tags[1:]])
    order = np.argsort(values, kind="stable")
    omegas, origins = values[order], tuple(tags[i] for i in order)
    gaps = np.diff(omegas)
    if np.any(gaps <= 10 * table.tol):
        i = int(np.argmin(gaps))
        raise DomainError(
            f"non-resonance violation: origins {origins[i]} and {origins[i + 1]} "
            f"collide (gap {gaps[i]:.3e})")
    return FrequencySet(omegas=omegas, origins=origins)


def _extension(omegas: np.ndarray) -> np.ndarray:
    """The solver's family (-omega_K .. -omega_1, [0,] omega_1 .. omega_K)."""
    pos = omegas[omegas > 0]
    return np.concatenate([-pos[::-1], omegas[omegas == 0], pos])


def gram_matrix(freqs: FrequencySet, T: float,
                with_time_element: bool = True) -> np.ndarray:
    """Hermitian Gram matrix of {t -> exp(-i omega t)} over the symmetric
    extension, optionally bordered by the element t -> t."""
    ext = _extension(freqs.omegas)
    g = _int_exp(np.subtract.outer(ext, ext), T)
    if not with_time_element:
        return g
    col = _int_t_exp(ext, T)[:, None]  # <t, f_j> = int t exp(i omega_j t)
    return np.block([[g, col], [np.conj(col).T, T ** 3 / 3.0]])


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
        if np.any(np.abs(self.d[self.freqs.omegas == 0].imag) > 1e-12 * scale):
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
    plus t -> t, and the data by the same rule (d_{-k} = conj(d_k), then the
    t-moment 0), so the solution is real-valued by construction. One
    eigendecomposition of the Gram matrix gives the reported condition number
    and the solve, which a condition number above `cond_limit` refuses.
    """
    T, d = problem.T, problem.d
    pos = problem.freqs.omegas > 0
    rhs = np.concatenate([np.conj(d[pos])[::-1], d[~pos].real, d[pos], [0.0]])
    g = gram_matrix(problem.freqs, T)

    eigs, vecs = linalg.eigh(g)
    m_eig, big_eig = float(eigs[0]), float(eigs[-1])
    cond = np.inf if m_eig <= 0 else big_eig / m_eig
    if cond > cond_limit:
        raise ConditioningError(
            f"Gram condition number {cond:.3e} exceeds {cond_limit:.1e} "
            f"(T={T}, K={problem.freqs.K}, min gap={problem.freqs.min_gap():.3e}); "
            "increase T or reduce K")
    x = vecs @ ((vecs.conj().T @ rhs) / eigs)

    # enforce the conjugate symmetry that exact arithmetic would give
    x_exp = 0.5 * (x[:-1] + np.conj(x[-2::-1]))
    signal = ControlSignal.from_function(
        ExpSum(_extension(problem.freqs.omegas), x_exp,
               [0.0, float(x[-1].real)]), T)
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
    nodes, weights = _oscillatory_nodes(T, float(problem.freqs.omegas[-1]))
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
