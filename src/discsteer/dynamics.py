"""Spectral Galerkin simulation of the fixed-domain control systems.

The truncated dynamics are ``i c' = diag(lambda) c + w(t) M c + f(t)`` with
``lambda_k = j_{0,k}^2`` and M the symmetric coupling matrix of r^2 in the
normalised mode basis. Time stepping is trapezoidal (Crank-Nicolson), which is
exactly unitary for the homogeneous skew-adjoint generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .bessel import ZeroTable, gauss_legendre_rule
from .errors import AdmissibilityError, DomainError
from .spectral import RadialState, TargetParams, coupling_matrix

H10_MEAN_TOL = 1e-10
# complex entries in one block of phases exp(i t omega): 2^18, 4 MB
PHASE_BLOCK_ENTRIES = 2 ** 18


def _phase_blocks(t: np.ndarray, omegas: np.ndarray, sum_over_t: bool):
    """Yield (rows, exp(i outer(t[rows], omegas))) over consecutive blocks of
    the 1-D times t, each of at most PHASE_BLOCK_ENTRIES entries.

    For a sum over t the block is yielded transposed, terms by rows, so the
    summed axis is always the contiguous one: a sum that fits in one block
    rounds exactly as the product with the whole phase array does. Every
    block is written into the same buffer, so memory stays at one block
    whatever the size of t; a caller uses each block before the next.
    """
    step = max(1, PHASE_BLOCK_ENTRIES // max(omegas.size, 1))
    buf = np.empty((min(step, t.size), omegas.size), dtype=complex,
                   order="F" if sum_over_t else "C")
    freqs = 1j * omegas
    for start in range(0, t.size, step):
        rows = slice(start, min(start + step, t.size))
        block = buf[:rows.stop - start]
        np.multiply.outer(t[rows], freqs, out=block)
        np.exp(block, out=block)
        yield rows, block.T if sum_over_t else block


@dataclass(frozen=True)
class ExpSum:
    """Real function f(t) = Re sum_j a_j exp(-i omega_j t) + sum_m p_m t^m.

    The closed form of every control the moment solver builds. The
    antiderivative (the one closed-form integral), the derivative, sums and
    scalar multiples are exact up to rounding; evaluation costs
    O(len(omegas) + len(poly)) per point, and its memory is bounded by one
    block of PHASE_BLOCK_ENTRIES phases, whatever the number of points.
    """

    omegas: np.ndarray   # real frequencies
    amps: np.ndarray     # complex amplitudes a_j, aligned with omegas
    poly: np.ndarray     # real polynomial coefficients p_m, ascending powers

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "amps", np.asarray(self.amps, dtype=complex))
        object.__setattr__(self, "poly", np.atleast_1d(np.asarray(self.poly,
                                                                  dtype=float)))
        if self.omegas.ndim != 1 or self.amps.shape != self.omegas.shape \
                or self.poly.ndim != 1:
            raise DomainError("an exponential sum needs 1-D frequencies, "
                              "amplitudes of the same shape and 1-D polynomial "
                              "coefficients")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.size)
        for rows, phases in _phase_blocks(t.ravel(), -self.omegas,
                                          sum_over_t=False):
            out[rows] = np.real(phases @ self.amps)
        return out.reshape(t.shape) + P.polyval(t, self.poly)

    def derivative(self) -> "ExpSum":
        return ExpSum(self.omegas, -1j * self.omegas * self.amps,
                      P.polyder(self.poly))

    def antiderivative(self) -> "ExpSum":
        """int_0^t f: zero frequencies move into the polynomial, and the
        constant term makes the value at t = 0 vanish."""
        zero = self.omegas == 0.0
        omegas = self.omegas[~zero]
        amps = 1j * self.amps[~zero] / omegas  # 1 / (-i omega) = i / omega
        poly = P.polyadd(P.polyint(self.poly),
                         [-np.sum(amps.real), np.sum(self.amps[zero].real)])
        return ExpSum(omegas, amps, poly)

    def __add__(self, other: "ExpSum") -> "ExpSum":
        # terms at the same frequency merge, so repeated sums over one
        # frequency set keep its size
        omegas, where = np.unique(np.concatenate([self.omegas, other.omegas]),
                                  return_inverse=True)
        amps = np.zeros(omegas.size, dtype=complex)
        np.add.at(amps, where, np.concatenate([self.amps, other.amps]))
        return ExpSum(omegas, amps, P.polyadd(self.poly, other.poly))

    def __mul__(self, scalar: float) -> "ExpSum":
        return ExpSum(self.omegas, scalar * self.amps, scalar * self.poly)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ControlSignal:
    """Real control on [0, T], sampled on a uniform grid.

    A signal has one of two kinds of content:

    - an `ExpSum` in `fn` (the controls of `solve_moment` and
      `integrate_control`, their sums and scalar multiples, and `zero`):
      evaluation, the derivative, `integral`, `+` and scalar `*` act on the
      coefficients and are exact up to rounding.
    - samples: everything else. The derivative is taken by central
      differences of the samples, `integral` is the trapezoid rule and scalar
      `*` acts on the samples; `+` raises `DomainError`, as
      `integrate_control` does.

    A callable attached by `from_function` is only a more accurate point
    evaluator for the samples: `__call__` uses it and nothing else does, so
    a multiple drops it.

    Whenever `fn` is attached, `samples` is `fn` on the grid.
    """

    samples: np.ndarray
    T: float
    fn: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise DomainError("a control signal needs at least two samples")
        if not 0 < self.T < np.inf:
            raise DomainError(f"horizon T={self.T} must be finite and positive")

    @classmethod
    def from_function(cls, fn, T: float, n_samples: int = 2049) -> "ControlSignal":
        grid = np.linspace(0.0, T, n_samples)
        return cls(samples=np.real(fn(grid)), T=T, fn=fn)

    @classmethod
    def zero(cls, T: float) -> "ControlSignal":
        return cls.from_function(ExpSum(np.zeros(0), np.zeros(0), [0.0]), T)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.samples.size)

    @property
    def closed_form(self) -> bool:
        """True when the signal is an exponential sum."""
        return isinstance(self.fn, ExpSum)

    def __call__(self, t):
        if self.fn is not None:
            return np.real(self.fn(t))
        return np.interp(t, self.grid, self.samples)

    def derivative(self, t):
        """Derivative at t: exact for an exponential sum, otherwise central
        differences of the samples."""
        if self.closed_form:
            return self.fn.derivative()(t)
        d = np.gradient(self.samples, self.grid)
        return np.interp(t, self.grid, d)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def integral(self) -> float:
        """Integral over [0, T]: the antiderivative at T for an exponential
        sum, the trapezoid rule on the samples otherwise."""
        if self.closed_form:
            return float(self.fn.antiderivative()(self.T))
        return float(np.trapezoid(self.samples, self.grid))

    def is_h10_admissible(self) -> bool:
        """Endpoints vanish and the time average is (numerically) zero."""
        scale = max(self.max_abs(), 1e-300)
        ends_ok = abs(self.samples[0]) <= H10_MEAN_TOL * scale \
            and abs(self.samples[-1]) <= H10_MEAN_TOL * scale
        return ends_ok and abs(self.integral()) <= H10_MEAN_TOL * self.T * scale

    def __add__(self, other: "ControlSignal") -> "ControlSignal":
        if not (self.closed_form and other.closed_form):
            raise DomainError("only exponential-sum controls can be added")
        if abs(self.T - other.T) > 1e-12 * max(self.T, other.T):
            raise DomainError("cannot add control signals with different horizons")
        n = max(self.samples.size, other.samples.size)
        return ControlSignal.from_function(self.fn + other.fn, self.T, n)

    def __mul__(self, scalar: float) -> "ControlSignal":
        fn = scalar * self.fn if self.closed_form else None
        return ControlSignal(samples=scalar * self.samples, T=self.T, fn=fn)

    __rmul__ = __mul__


@dataclass(frozen=True)
class GalerkinSystem:
    """Mode count, eigenvalues and coupling matrix of the truncated system."""

    N: int
    lambdas: np.ndarray
    M: np.ndarray

    @classmethod
    def build(cls, N: int, table: ZeroTable) -> "GalerkinSystem":
        if N < 1:
            raise DomainError(f"the Galerkin system needs N >= 1 modes, got N={N}")
        if table.k_max < N:
            raise DomainError(f"zero table covers k <= {table.k_max}, need {N}")
        return cls(N=N, lambdas=table.lambdas(N), M=coupling_matrix(N, table))


def free_evolution(state: RadialState, t: float, lambdas: np.ndarray) -> RadialState:
    """Phase rotation c_k -> exp(-i lambda_k t) c_k; exactly norm-preserving."""
    lam = np.asarray(lambdas)[:state.n_modes]
    if lam.size < state.n_modes:
        raise DomainError("not enough eigenvalues for the state truncation")
    return RadialState(state.coeffs * np.exp(-1j * lam * t))


@dataclass(frozen=True)
class SimulationResult:
    times: np.ndarray
    states: np.ndarray  # (steps+1, N) complex

    @property
    def final(self) -> RadialState:
        # a copy, so that the endpoint does not keep the trajectory alive
        return RadialState(self.states[-1].copy())

    def norm_drift(self) -> float:
        norms2 = np.sum(np.abs(self.states) ** 2, axis=1)
        return float(np.max(np.abs(norms2 - norms2[0])))


def simulate_bilinear(state0: RadialState, w: ControlSignal, sys: GalerkinSystem,
                      steps: int = 2 ** 14, forcing=None) -> SimulationResult:
    """Propagate i c' = diag(lambda) c + w(t) M c + f(t) by Crank-Nicolson.

    `forcing`, if given, maps an array of times to an (n_times, N) complex
    array of mode-coefficient forcing values. The potential coefficient and
    the forcing are both evaluated at step midpoints.
    """
    if steps < 2:
        raise DomainError("need at least 2 time steps")
    c = state0.padded(sys.N)
    T = w.T
    # M compresses r^2 in (0, 1), so 0 < M < I and max|w| bounds |w M|
    needed = 2.0 * T * max(sys.lambdas[-1], w.max_abs())
    if steps < needed:
        warnings.warn(f"steps={steps} below resolution heuristic {needed:.0f}; "
                      "endpoint accuracy may degrade", stacklevel=2)

    dt = T / steps
    times = np.linspace(0.0, T, steps + 1)
    t_mid = times[:-1] + dt / 2
    w_mid = np.atleast_1d(w(t_mid))
    f_mid = None if forcing is None else np.asarray(forcing(t_mid))

    out = np.empty((steps + 1, sys.N), dtype=complex)
    out[0] = c
    eye = np.eye(sys.N)
    lam = np.diag(sys.lambdas)
    for n in range(steps):
        k = 0.5j * dt * (lam + w_mid[n] * sys.M)
        rhs = c - k @ c
        if f_mid is not None:
            rhs = rhs - 1j * dt * f_mid[n]
        c = np.linalg.solve(eye + k, rhs)
        out[n + 1] = c
    return SimulationResult(times=times, states=out)


def _oscillatory_nodes(T: float, omega_max: float):
    """Composite Gauss-Legendre nodes resolving phases up to omega_max."""
    n_sub = max(32, int(np.ceil(T * max(omega_max, 1.0) / 12.0)))
    x, wq = gauss_legendre_rule(16)
    edges = np.linspace(0.0, T, n_sub + 1)
    h = edges[1] - edges[0]
    nodes = (edges[:-1, None] + h * x).ravel()
    return nodes, np.tile(h * wq, n_sub)


def simulate_linearized(v: ControlSignal, params: TargetParams,
                        sys: GalerkinSystem) -> RadialState:
    """Endpoint of the system linearised around the free reference trajectory.

    Zero initial data is assumed; a nonzero initial state is handled by the
    caller through free-evolution superposition. Each mode endpoint is the
    explicit oscillatory integral of the control derivative against the three
    reference phases, evaluated by composite Gauss-Legendre quadrature. The
    quadrature only evaluates v' at nodes, also for an `ExpSum` control, so
    it stays an independent check of the closed-form synthesis.
    """
    if sys.N < 3:
        raise DomainError(f"the three-mode reference packet needs N >= 3, "
                          f"got N={sys.N}")
    if not v.is_h10_admissible():
        raise AdmissibilityError("control is not H^1_0-admissible")
    T = v.T
    lam = sys.lambdas
    nodes, weights = _oscillatory_nodes(T, float(lam[-1] - lam[0]))
    wdv = weights * np.atleast_1d(v.derivative(nodes))

    # integrals[k, p] = int_0^T v'(s) exp(i (lambda_k - lambda_p) s) ds; the
    # first three rows of a block are the packet phases exp(i lambda_p s)
    integrals = np.zeros((sys.N, 3), dtype=complex)
    for rows, phases in _phase_blocks(nodes, lam, sum_over_t=True):
        integrals += phases @ (np.conj(phases[:3]).T * wdv[rows, None])
    coeffs = (sys.M[:, :3] * integrals) @ params.weights()
    return RadialState(-1j * np.exp(-1j * lam * T) * coeffs)
