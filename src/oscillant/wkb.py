"""Leading-order two-scale approximate solutions and their consistency.

The approximate solution has the form

    u_a = g(t, x) e^{i theta/eps} e1 + conj + sqrt(eps) * correctors,
    theta = k.x - omega t,

where the scalar amplitude g rides a transport equation at the group
velocity with a cubic self-interaction assembled from the quadratic source
through the partial inverses of the harmonic characteristic matrices.  In
one dimension that equation is solved exactly along its characteristics
(:func:`amplitude_factor`, an error on blow-up; the simulator's reference wave
reads it too).  A solution keeps the datum; each snapshot is formed where it
is read, from its spectrum (2 FFTs).  The residual reads one spectrum, forms g
and g_x from it (3 FFTs in all) and only the harmonics p >= 0, as -p
conjugates p in a real system, by blocks of x.  Every threshold is the
system's ``policy``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numeric import (MIN_POINTS_PER_WAVELENGTH, InputError, MultiplicityError, NumericalError,
                      fit_epsilons, grid_period, supnorm)
from .resonance import Phase, characteristic_harmonics, harmonic, harmonic_matrix
from .system import SystemSpec


# grid points per block of :func:`pde_residual`'s evaluation
RESIDUAL_BLOCK = 4096
MAX_RESIDUAL_POINTS = 2 ** 23   # the CLI's largest residual grid: ~90 B a point at peak, 0.7 GiB

# random sample vectors (after the unit vectors) of the weak-transparency battery, and
# the seed they are drawn with
WEAK_TRANSPARENCY_SAMPLES = 16
WEAK_TRANSPARENCY_SEED = 0


@dataclass
class WeakTransparencyResult:
    passed: bool
    max_defect: float
    witness: tuple = None        # (p, u, v) on failure


def weak_transparency_check(spec: SystemSpec, phase: Phase) -> WeakTransparencyResult:
    """Projected quadratic compatibility needed for the two-scale cascade.

    For p in {-1, 0, 1} and a battery of sample vectors, checks

        Pi(p beta) sum_{p1 + p2 = p} B(Pi(p1 beta) u, Pi(p2 beta) v) = 0.

    Fails with the offending (p, u, v) witness: the first in (p, u, v) order whose
    defect is within the pass tolerance of the maximum, so pairs that tie up to
    rounding name the same witness however the products round.  Refuses to run
    when the harmonics of the phase are not exactly {-1, 0, 1}.  Each (p1, p2) is
    one B call on every projected sample pair.
    """
    harmonics = characteristic_harmonics(spec, phase, pmax=4)
    if set(harmonics) != {-1, 0, 1}:
        raise InputError(f"cascade assumptions violated: characteristic harmonics {harmonics}")
    projs = {p: harmonic(spec, phase, p).projector() for p in (-1, 0, 1)}
    rng = np.random.default_rng(WEAK_TRANSPARENCY_SEED)
    draws = rng.normal(size=(WEAK_TRANSPARENCY_SAMPLES, 2, spec.N))
    samples = np.hstack([np.eye(spec.N), (draws[:, 0] + 1j * draws[:, 1]).T])   # a column each
    n = samples.shape[1]
    # column n u + v of the stacked battery holds the sample pair (u, v), projected
    left = {p: np.repeat(projs[p] @ samples, n, axis=1) for p in (-1, 0, 1)}
    right = {p: np.tile(projs[p] @ samples, n) for p in (-1, 0, 1)}
    scale, defects = 1e-300, []
    for p in (-1, 0, 1):
        terms = [spec.B(left[p1], right[p - p1]) for p1 in (-1, 0, 1) if p - p1 in projs]
        scale = max(scale, *(float(np.abs(t).max()) for t in terms))
        defects.append(np.abs(projs[p] @ sum(terms)).max(axis=0))
    defects = np.stack(defects)
    worst = float(defects.max())
    tol = spec.policy.algebra_tol * max(scale, 1.0)
    passed = worst <= tol
    ip, pair = np.unravel_index(np.argmax(defects >= worst - tol), defects.shape)
    witness = None if passed else (int(ip) - 1, samples[:, pair // n], samples[:, pair % n])
    return WeakTransparencyResult(passed=passed, max_defect=worst, witness=witness)


@dataclass
class TransportSetup:
    """Scalar transport data for the leading amplitude, and the corrector
    vectors the cubic coefficient is assembled from."""

    group_velocity: np.ndarray
    cubic_coefficient: complex
    second_harmonic: np.ndarray   # L(2 beta)^-1 B(e1, e1): multiplies g^2
    mean_mode: np.ndarray         # L(0)^-1 (B(e1, e-1) + B(e-1, e1)): multiplies |g|^2


def transport_setup(spec: SystemSpec, phase: Phase, e1) -> TransportSetup:
    """Group velocity and cubic coefficient of the leading-amplitude equation.

    The group velocity is Re e1* Pi A_j e1, with Pi the projector onto the
    kernel of the characteristic matrix: for a simple kernel the gradient of
    the branch carrying the phase (Hellmann-Feynman); at a crossing, scalar
    transport needs the polarization to diagonalize the transport within the
    kernel.  The cubic coefficient reduces the two quadratic feedback channels
    (second harmonic and mean mode) to a scalar against the polarization;
    their vectors are kept as the correctors.
    """
    e1, policy = np.asarray(e1, dtype=complex), spec.policy
    P = harmonic(spec, phase, 1).projector()
    vg = np.zeros(spec.d)
    for a in range(spec.d):
        Av = P @ (spec.Aj[a] @ e1)
        coef = complex(np.vdot(e1, Av))
        if supnorm(Av - coef * e1) > policy.algebra_tol * max(1.0, supnorm(Av)):
            raise MultiplicityError(
                "the polarization does not diagonalize the transport within the "
                "phase's kernel; at a crossing a family of transport equations "
                "would be required")
        vg[a] = coef.real

    B = spec.B
    second = B(e1, e1)
    L2 = harmonic_matrix(spec, phase, 2)
    Lm2 = harmonic(spec, phase, 2).partial_inverse() @ second
    if supnorm(L2 @ Lm2 - second) > policy.harmonic_solve_tol * max(1.0, supnorm(second)):
        raise NumericalError("second-harmonic source not invertible (harmonics condition fails)")
    em1 = e1.conj()
    mean = B(e1, em1) + B(em1, e1)
    w0 = harmonic(spec, phase, 0).partial_inverse() @ mean
    v = (B(em1, Lm2) + B(Lm2, em1)) + (B(e1, w0) + B(w0, e1))
    c3 = complex(np.vdot(e1, v))
    return TransportSetup(group_velocity=vg, cubic_coefficient=c3, second_harmonic=Lm2,
                          mean_mode=w0)


def amplitude_factor(c3, t, m0):
    """g / g0 at time t along a characteristic of dg/dt + v_g . dg/dx = c3 |g|^2 g
    from a datum with |g0|^2 = m0: 1 when c3 = 0, else exp(c3 m0 t phi(z)), with
    z = 2 Re(c3) m0 t and phi(z) = -log1p(-z) / z.  Raises :class:`NumericalError`
    when Re c3 > 0 and |g|^2 = m0 / (1 - z) blows up by t."""
    if c3 == 0:
        return 1.0
    a = c3.real
    m0_max = float(np.max(m0))
    if a > 0 and 2 * a * t * m0_max >= 1:
        raise NumericalError(f"the amplitude blows up at t = {1 / (2 * a * m0_max):.6g}, "
                             f"before t = {t:.6g}")
    if a == 0:  # |g| is conserved: the factor is a phase
        return _unit_phase((c3.imag * t) * m0)
    # c3 times the integral of |g|^2 along the characteristic, c3 m0 t phi(z)
    return np.exp(np.log1p((-2 * a * t) * m0) * (-c3 / (2 * a)))


def _unit_phase(phi):
    """e^{i phi} of a real array, from its cosine and sine."""
    out = np.empty(np.shape(phi), dtype=complex)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    return out


@dataclass
class WKBSolution:
    """Leading-order approximate solution on a periodic grid: the datum, at ``times``."""

    spec: SystemSpec
    phase: Phase
    e1: np.ndarray
    x: np.ndarray
    times: np.ndarray
    g0: np.ndarray                # (len(x),) complex amplitude at t = 0
    setup: TransportSetup
    with_correctors: bool = False   # the residual adds the sqrt(eps) correctors of setup

    @cached_property
    def grid(self):
        """Period of the uniform periodic grid ``x`` and its angular wavenumbers."""
        n, L = len(self.x), grid_period(self.x)
        return L, 2 * np.pi * np.fft.fftfreq(n, d=L / n)

    def spectrum(self, it) -> np.ndarray:
        """Fourier coefficients of g at ``times[it]``: the exact factor on g0, shifted
        by v_g t per mode (1 FFT)."""
        t = self.times[it]
        if t == 0:
            return np.fft.fft(self.g0)
        vg, c3 = float(self.setup.group_velocity[0]), self.setup.cubic_coefficient
        factor = amplitude_factor(c3, t, np.abs(self.g0) ** 2)
        return np.fft.fft(self.g0 * factor) * _unit_phase((-vg * t) * self.grid[1])

    def amplitude(self, it) -> np.ndarray:
        """g at ``times[it]``, the inverse of its :meth:`spectrum` (2 FFTs); g0 at t = 0."""
        return self.g0 if self.times[it] == 0 else np.fft.ifft(self.spectrum(it))

    @property
    def g(self) -> np.ndarray:
        """(len(times), len(x)) stack of every snapshot, formed on each access."""
        return np.stack([self.amplitude(i) for i in range(len(self.times))])


def solve_transport(spec: SystemSpec, phase: Phase, e1, a0_samples, x, t_end,
                    n_steps=64, with_correctors=False) -> WKBSolution:
    """Leading amplitude of dg/dt + v_g . dg/dx = c3 |g|^2 g at n_steps + 1 equal times.

    Periodic in x, one spatial dimension.  Along each characteristic the exact
    solution is g0 times :func:`amplitude_factor`; :meth:`WKBSolution.amplitude`
    forms a snapshot where it is read, as that factor on the datum shifted by v_g t
    exactly per Fourier mode (2 FFTs).  Raises :class:`NumericalError` when the
    amplitude blows up by t_end.
    """
    if spec.d != 1:
        raise InputError("amplitude transport is implemented in one spatial dimension")
    setup = transport_setup(spec, phase, e1)
    times = np.concatenate(([0.0], np.cumsum(np.full(n_steps, t_end / n_steps))))
    g0 = np.array(a0_samples, dtype=complex)
    amplitude_factor(setup.cubic_coefficient, times[-1], np.max(np.abs(g0) ** 2))  # blow-up check
    return WKBSolution(spec=spec, phase=phase, e1=np.asarray(e1, dtype=complex),
                       x=np.asarray(x, dtype=float), times=times, g0=g0, setup=setup,
                       with_correctors=with_correctors)


def pde_residual(wkb: WKBSolution, epsilon: float, it=0):
    """Residual of the truncated expansion in the full equation at one snapshot.

    Evaluates d_t u_a + A0 u_a / eps + A(d_x) u_a - B(u_a, u_a)/sqrt(eps) on
    the spatial grid with spectral x-derivatives and analytic t-derivatives
    (through the amplitude equation), and returns its L2 norm.  Only snapshot
    ``it`` is formed; with u_a = V F, constant vectors times oscillating
    profiles, the linear part is one product [L(i p beta) V/eps | V | A1 V] [F; F_t; F_x].
    A0, A1 and B are real, so harmonic -p conjugates p: V F holds p >= 0 only (p = 0
    at half weight), and u_a and the linear part are 2 Re of the products.  Only g
    and g_x span the grid: F, u_a and the residual are formed ``RESIDUAL_BLOCK``
    points at a time, and the squared norm summed over the blocks.  One phase
    e^{i theta/eps} per point serves every harmonic: F of p = 2 is the square of
    F of p = 1, and p = 0 has none.
    """
    spec, phase = wkb.spec, wkb.phase
    if spec.d != 1:
        raise InputError("the residual is evaluated in one spatial dimension (spec.d must be 1)")
    x = wkb.x
    L, kappa = wkb.grid
    n = len(x)
    k = float(phase.k[0])
    ppw = 2 * np.pi * n * epsilon / (L * abs(k)) if k else np.inf
    if ppw < MIN_POINTS_PER_WAVELENGTH:
        raise NumericalError(f"grid resolves only {ppw:.1f} points per oscillation wavelength; "
                             f"need >= {MIN_POINTS_PER_WAVELENGTH}")

    # g and g_x from one spectrum (g_x in its buffer); at t = 0, g is the datum itself
    ghat = wkb.spectrum(it)
    g = wkb.g0 if wkb.times[it] == 0 else np.fft.ifft(ghat)
    setup = wkb.setup
    gx = np.fft.ifft(np.multiply(1j * kappa, ghat, out=ghat), out=ghat)
    vg, c3 = float(setup.group_velocity[0]), setup.cubic_coefficient

    # harmonic p >= 0 and its constant vector
    terms = [(1, wkb.e1)]
    if wkb.with_correctors:
        se = np.sqrt(epsilon)
        terms += [(2, se * setup.second_harmonic), (0, se / 2 * setup.mean_mode)]
    V = np.array([v for _, v in terms]).T
    LV = np.array([harmonic_matrix(spec, phase, p) @ v for p, v in terms]).T
    # the 2 of 2 Re(...) scales the constant factors, exactly
    V2, linear2 = 2 * V, 2 * np.hstack([LV / epsilon, V, spec.Aj[0] @ V])
    norm2 = 0.0
    for start in range(0, n, RESIDUAL_BLOCK):
        b = slice(start, start + RESIDUAL_BLOCK)
        gb, gxb = g[b], gx[b]
        gt = -vg * gxb + c3 * np.abs(gb) ** 2 * gb
        # each harmonic's profile with d_t and d_x, times e^{i p theta}: harmonic 2's is
        # the square of harmonic 1's, harmonic 0's has no phase
        F = np.empty((3, len(terms), len(gb)), dtype=complex)
        np.multiply((gb, gt, gxb), _unit_phase((k * x[b] - phase.omega * wkb.times[it]) / epsilon),
                    out=F[:, 0])
        if wkb.with_correctors:
            F[0, 1] = F[0, 0] * F[0, 0]
            F[1:, 1] = 2 * F[0, 0] * F[1:, 0]
            F[:, 2] = (np.abs(gb) ** 2, 2 * (gb.conj() * gt).real, 2 * (gb.conj() * gxb).real)
        u = (V2 @ F[0]).real
        res = (linear2 @ F.reshape(3 * len(terms), -1)).real
        res -= spec.B(u, u) / np.sqrt(epsilon)
        norm2 += float(np.vdot(res, res))
    return float(np.sqrt(norm2 * (L / n)))


@dataclass
class ConsistencyFit:
    epsilons: np.ndarray
    residuals: np.ndarray
    fitted_order: float


def consistency_residual(wkb_factory, spec: SystemSpec, epsilons) -> ConsistencyFit:
    """Fitted order of the expansion residual across a range of wavelengths.

    ``wkb_factory(eps)`` must return a :class:`WKBSolution` on a grid that
    resolves the oscillation at that epsilon; the result is the least-squares
    slope of log residual against log epsilon, over at least two distinct
    epsilons, none repeated.  Each solution is scored at its last snapshot, the only one
    formed (:func:`pde_residual` at ``it=-1``).  Residuals all below
    ``spec.policy.residual_floor`` make an exact solution, of order inf.
    """
    epsilons = fit_epsilons(epsilons, 2, "a residual order")
    res = np.array([pde_residual(wkb_factory(eps), eps, it=-1) for eps in epsilons])
    if np.all(res < spec.policy.residual_floor):
        order = np.inf   # exact solution: residual at floor
    else:
        order = float(np.polyfit(np.log(epsilons), np.log(np.maximum(res, 1e-300)), 1)[0])
    return ConsistencyFit(epsilons=epsilons, residuals=res, fitted_order=order)
