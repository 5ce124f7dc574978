"""Trigonometric moment problem over Bessel eigenvalue gap frequencies.

The frequency set is ``{0} U {j_{0,n}^2 - j_{0,p}^2 : p=1,2,3, n >= p+1}``.
A real control derivative w on [0, T] is sought with prescribed moments
``int_0^T w(t) exp(i omega t) dt`` and, optionally, a prescribed value of
``int_0^T t w(t) dt``. The truncated problem is solved by minimum-L2-norm
inversion of the Gram matrix of the conjugate-symmetric exponential family
extended by t -> t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .bessel import ZeroTable
from .dynamics import (ControlSignal, ExpSum, GalerkinSystem, _int_exp,
                       _int_t_exp)
from .errors import AdmissibilityError, ConditioningError, DomainError
from .spectral import RadialState, TargetParams

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


def check_nonresonance(table: ZeroTable, n_max: int) -> float:
    """Minimum pairwise gap of the frequency set up to n_max; always > 0."""
    return build_frequencies(table, n_max).min_gap()


def upper_density(freqs: FrequencySet, r_values) -> np.ndarray:
    """Sliding-window density estimates max_I #(omega in I)/r over the
    symmetric extension of the frequency set."""
    pos = freqs.omegas[freqs.omegas > 0]
    ext = np.concatenate([-pos[::-1], [0.0], pos]) if 0.0 in freqs.omegas \
        else np.concatenate([-pos[::-1], pos])
    out = []
    for r in np.atleast_1d(r_values):
        counts = np.searchsorted(ext, ext + r, side="right") - np.arange(ext.size)
        out.append(float(np.max(counts)) / r)
    return np.array(out)


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
    """Prescribed moments d aligned with `freqs`, optional t-moment, horizon T."""

    freqs: FrequencySet
    d: np.ndarray
    T: float
    d_tilde: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        if self.d.size != self.freqs.K:
            raise DomainError("d must align with the frequency set")
        scale = max(float(np.max(np.abs(self.d))), 1.0)
        zero_idx = np.flatnonzero(self.freqs.omegas == 0.0)
        for i in zero_idx:
            if abs(self.d[i].imag) > 1e-12 * scale:
                raise DomainError("the zero-frequency moment d_0 must be real")

    def to_json(self, path) -> None:
        payload = {
            "T": self.T,
            "d_tilde": self.d_tilde,
            "frequencies": [
                {"omega": float(w), "origin": list(o) if o else None,
                 "d": [float(v.real), float(v.imag)]}
                for w, o, v in zip(self.freqs.omegas, self.freqs.origins, self.d)
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


@dataclass(frozen=True)
class MomentSolution:
    """Minimum-norm solution w with its exponential coefficient representation."""

    signal: ControlSignal
    omegas_ext: np.ndarray
    coeffs: np.ndarray  # aligned with omegas_ext; last entry is the t coefficient
    diagnostics: dict = field(compare=False)

    def to_json(self, path) -> None:
        payload = {
            "omegas": list(map(float, self.omegas_ext)),
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coeffs],
            "diagnostics": self.diagnostics,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def solve_moment(problem: MomentProblem, n_samples: int = 2049,
                 cond_limit: float = 1e12) -> MomentSolution:
    """Solve the truncated moment problem by minimum-norm Gram inversion.

    The solution is expanded over the conjugate-symmetric exponential family
    (plus t -> t when the t-moment is prescribed), so it is real-valued by
    construction whenever d is extended conjugate-symmetrically.
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

    with_t = problem.d_tilde is not None
    g = gram_matrix(problem.freqs, T, with_time_element=with_t)
    rhs = np.concatenate([d_ext, [problem.d_tilde]]) if with_t else d_ext

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
    except linalg.LinAlgError:
        jitter = 1e-14 * np.trace(g).real / g.shape[0]
        x = linalg.cho_solve(linalg.cho_factor(g + jitter * np.eye(g.shape[0])), rhs)

    # enforce the conjugate symmetry that exact arithmetic would give
    x_exp = x[:ext.size]
    x_exp = 0.5 * (x_exp + np.conj(x_exp[mirror]))
    x_t = float(x[-1].real) if with_t else 0.0

    signal = ControlSignal.from_function(ExpSum(ext, x_exp, [0.0, x_t]), T,
                                         n_samples=n_samples)
    coeffs = np.concatenate([x_exp, [x_t]])
    residuals = moment_residuals(signal, problem)
    diagnostics = {
        "condition_number": float(cond),
        "gram_min_eig": m_eig,
        "gram_max_eig": big_eig,
        "max_residual": float(np.max(np.abs(residuals))) if residuals.size else 0.0,
    }
    return MomentSolution(signal=signal, omegas_ext=ext, coeffs=coeffs,
                          diagnostics=diagnostics)


def moment_residuals(signal: ControlSignal, problem: MomentProblem) -> np.ndarray:
    """Residuals of all prescribed moments, by independent high-order quadrature.

    This is the oracle for `solve_moment`: it only evaluates the signal at
    composite Gauss-Legendre nodes and never uses the closed-form integrals
    of an `ExpSum`, so an error in that algebra cannot cancel against itself.
    """
    from .dynamics import _oscillatory_nodes

    T = problem.T
    omega_max = float(problem.freqs.omegas[-1]) if problem.freqs.K else 1.0
    nodes, weights = _oscillatory_nodes(T, omega_max)
    w_vals = np.atleast_1d(signal(nodes))
    phases = np.exp(1j * np.multiply.outer(problem.freqs.omegas, nodes))
    moments = phases @ (weights * w_vals)
    res = moments - problem.d
    if problem.d_tilde is not None:
        t_moment = np.sum(weights * nodes * w_vals)
        res = np.concatenate([res, [t_moment - problem.d_tilde]])
    return res


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
    packet = wts * np.exp(-1j * lam[:3] * T)  # reference coefficients at T
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
    return MomentProblem(freqs=freqs, d=d, T=T, d_tilde=0.0)
