"""Leading-order two-scale approximate solutions and their consistency.

The approximate solution has the form

    u_a = g(t, x) e^{i theta/eps} e1 + conj + sqrt(eps) * correctors,
    theta = k.x - omega t,

where the scalar amplitude g rides a transport equation at the group
velocity with a cubic self-interaction assembled from the quadratic source
through the partial inverses of the harmonic characteristic matrices.  In
one dimension that equation is solved exactly along its characteristics
(:func:`solve_transport`, an error on blow-up).  A solution keeps the datum;
each snapshot is formed where it is read (2 FFTs), and the residual reads one
and forms only the harmonics p >= 0, as -p conjugates p in a real system.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import (DEFAULT_POLICY, MIN_POINTS_PER_WAVELENGTH, InputError, MultiplicityError,
                      NumericalError, supnorm)
from .resonance import Phase, characteristic_harmonics, harmonic, harmonic_matrix
from .system import SystemSpec


def harmonic_projector(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """Orthogonal projector onto the kernel of L(i p beta)."""
    return harmonic(spec, phase, p).projector()


def partial_inverse(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """Inverse of L(i p beta) on its range (the kernel complement).

    The matrix is skew-hermitian so kernel and range are orthogonal and
    L^(-1) L = Id - Pi(p beta) holds, with the kernel of :func:`harmonic`.
    """
    return harmonic(spec, phase, p).partial_inverse()


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

    Fails with the offending (p, u, v) witness, the first worst in (p, u, v)
    order.  Refuses to run when the harmonics of the phase are not exactly
    {-1, 0, 1}.  Each (p1, p2) is one B call on every projected sample pair.
    """
    harmonics = characteristic_harmonics(spec, phase, pmax=4)
    if set(harmonics) != {-1, 0, 1}:
        raise InputError(f"cascade assumptions violated: characteristic harmonics {harmonics}")
    projs = {p: harmonic_projector(spec, phase, p) for p in (-1, 0, 1)}
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
    # the first maximum in (p, u, v) order, the pair a pair-by-pair scan would keep
    ip, pair = np.unravel_index(np.argmax(defects), (3, n * n))
    worst = float(defects[ip][pair])
    passed = worst <= DEFAULT_POLICY.algebra_tol * max(scale, 1.0)
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
    e1 = np.asarray(e1, dtype=complex)
    P = harmonic_projector(spec, phase, 1)
    vg = np.zeros(spec.d)
    for a in range(spec.d):
        Av = P @ (spec.Aj[a] @ e1)
        coef = complex(np.vdot(e1, Av))
        if supnorm(Av - coef * e1) > DEFAULT_POLICY.algebra_tol * max(1.0, supnorm(Av)):
            raise MultiplicityError(
                "the polarization does not diagonalize the transport within the "
                "phase's kernel; at a crossing a family of transport equations "
                "would be required")
        vg[a] = coef.real

    B = spec.B
    second = B(e1, e1)
    L2 = harmonic_matrix(spec, phase, 2)
    Lm2 = partial_inverse(spec, phase, 2) @ second
    if supnorm(L2 @ Lm2 - second) > DEFAULT_POLICY.harmonic_solve_tol * max(1.0, supnorm(second)):
        raise NumericalError("second-harmonic source not invertible (harmonics condition fails)")
    em1 = e1.conj()
    mean = B(e1, em1) + B(em1, e1)
    w0 = partial_inverse(spec, phase, 0) @ mean
    v = (B(em1, Lm2) + B(Lm2, em1)) + (B(e1, w0) + B(w0, e1))
    c3 = complex(np.vdot(e1, v))
    return TransportSetup(group_velocity=vg, cubic_coefficient=c3, second_harmonic=Lm2,
                          mean_mode=w0)


def _periodic_grid(x):
    """Period of a uniform periodic grid and its angular wavenumbers."""
    n = len(x)
    L = float(x[-1] - x[0]) * n / (n - 1)
    return L, 2 * np.pi * np.fft.fftfreq(n, d=L / n)


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

    def amplitude(self, it) -> np.ndarray:
        """g at ``times[it]``: the exact factor on g0 shifted by v_g t (2 FFTs); g0 at t = 0."""
        t = self.times[it]
        if t == 0:
            return self.g0
        _, kappa = _periodic_grid(self.x)
        vg, c3 = float(self.setup.group_velocity[0]), self.setup.cubic_coefficient
        a = c3.real
        m0 = np.abs(self.g0) ** 2
        # c3 times the integral of |g|^2 along the characteristic, c3 m0 t phi(z)
        gain = (c3 * t) * m0 if a == 0 else np.log1p((-2 * a * t) * m0) * (-c3 / (2 * a))
        return np.fft.ifft(np.fft.fft(self.g0 * np.exp(gain)) * np.exp((-1j * vg * t) * kappa))

    @property
    def g(self) -> np.ndarray:
        """(len(times), len(x)) stack of every snapshot, formed on each access."""
        return np.stack([self.amplitude(i) for i in range(len(self.times))])


def solve_transport(spec: SystemSpec, phase: Phase, e1, a0_samples, x, t_end,
                    n_steps=64, with_correctors=False) -> WKBSolution:
    """Leading amplitude of dg/dt + v_g . dg/dx = c3 |g|^2 g at n_steps + 1 equal times.

    Periodic in x, one spatial dimension.  Along each characteristic the exact
    solution is g = g0 exp(c3 m0 t phi(z)), with m0 = |g0|^2, z = 2 Re(c3) m0 t
    and phi(z) = -log1p(-z) / z; :meth:`WKBSolution.amplitude` forms a snapshot
    where it is read, as that factor on the datum shifted by v_g t exactly per
    Fourier mode (2 FFTs).  Raises :class:`NumericalError` when Re c3 > 0 and
    |g|^2 = m0 / (1 - z) blows up by t_end.
    """
    if spec.d != 1:
        raise InputError("amplitude transport is implemented in one spatial dimension")
    setup = transport_setup(spec, phase, e1)
    a = setup.cubic_coefficient.real
    times = np.concatenate(([0.0], np.cumsum(np.full(n_steps, t_end / n_steps))))
    g0 = np.array(a0_samples, dtype=complex)
    m0_max = float(np.max(np.abs(g0) ** 2))
    if a > 0 and 2 * a * times[-1] * m0_max >= 1:
        raise NumericalError(f"the amplitude blows up at t = {1 / (2 * a * m0_max):.6g}, "
                             f"before t_end = {t_end:.6g}")
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
    at half weight), and u_a and the linear part are 2 Re of the products.
    """
    spec, phase = wkb.spec, wkb.phase
    if spec.d != 1:
        raise InputError("the residual is evaluated in one spatial dimension (spec.d must be 1)")
    x = wkb.x
    L, kappa = _periodic_grid(x)
    n = len(x)
    k = float(phase.k[0])
    ppw = 2 * np.pi * n * epsilon / (L * abs(k)) if k else np.inf
    if ppw < MIN_POINTS_PER_WAVELENGTH:
        raise NumericalError(f"grid resolves only {ppw:.1f} points per oscillation wavelength; "
                             f"need >= {MIN_POINTS_PER_WAVELENGTH}")

    g = wkb.amplitude(it)
    setup = wkb.setup
    gx = np.fft.ifft(1j * kappa * np.fft.fft(g))
    gt = -float(setup.group_velocity[0]) * gx + setup.cubic_coefficient * np.abs(g) ** 2 * g

    # harmonic p >= 0, its constant vector, and its profile with d_t and d_x
    terms = [(1, wkb.e1, (g, gt, gx))]
    if wkb.with_correctors:
        se = np.sqrt(epsilon)
        terms += [(2, se * setup.second_harmonic, (g * g, 2 * g * gt, 2 * g * gx)),
                  (0, se / 2 * setup.mean_mode, (np.abs(g) ** 2, 2 * (g.conj() * gt).real,
                                                 2 * (g.conj() * gx).real))]
    theta = (k * x - phase.omega * wkb.times[it]) / epsilon
    F = np.empty((3, len(terms), n), dtype=complex)
    for h, (p, _, fs) in enumerate(terms):
        F[:, h] = np.multiply(fs, np.exp(1j * p * theta))

    V = np.array([v for _, v, _ in terms]).T
    LV = np.array([harmonic_matrix(spec, phase, p) @ v for p, v, _ in terms]).T
    u = 2 * (V @ F[0]).real
    res = 2 * (np.hstack([LV / epsilon, V, spec.Aj[0] @ V]) @ F.reshape(-1, n)).real
    res -= spec.B(u, u) / np.sqrt(epsilon)
    return float(np.sqrt(np.vdot(res, res) * (L / n)))


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
    epsilons.  Each solution is scored at its last snapshot, the only one
    formed (:func:`pde_residual` at ``it=-1``).
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if len(np.unique(epsilons)) < 2:
        raise InputError(f"a residual order needs two distinct epsilons, got {epsilons.tolist()}")
    res = np.array([pde_residual(wkb_factory(eps), eps, it=-1) for eps in epsilons])
    if np.all(res < DEFAULT_POLICY.residual_floor):
        order = np.inf   # exact solution: residual at floor
    else:
        order = float(np.polyfit(np.log(epsilons), np.log(np.maximum(res, 1e-300)), 1)[0])
    return ConsistencyFit(epsilons=epsilons, residuals=res, fitted_order=order)
