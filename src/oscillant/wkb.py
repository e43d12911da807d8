"""Leading-order two-scale approximate solutions and their consistency.

The approximate solution has the form

    u_a = g(t, x) e^{i theta/eps} e1 + conj + sqrt(eps) * correctors,
    theta = k.x - omega t,

where the scalar amplitude g rides a transport equation at the group
velocity with a cubic self-interaction assembled from the quadratic source
through the partial inverses of the harmonic characteristic matrices.  In
one dimension that equation is solved exactly along its characteristics
(:func:`solve_transport`: 2 FFTs per snapshot, an error on blow-up).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import (DEFAULT_POLICY, MIN_POINTS_PER_WAVELENGTH, InputError, MultiplicityError,
                      NumericalError, supnorm)
from .resonance import Phase, _kernel_basis, characteristic_harmonics
from .spectral import assemble_symbol
from .system import SystemSpec


def harmonic_matrix(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """L(i p beta) = -i p omega + A0 + i p A(k)."""
    return -1j * p * phase.omega * np.eye(spec.N) + spec.A0 + 1j * p * spec.transport_symbol(phase.k)


def harmonic_projector(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """Orthogonal projector onto the kernel of L(i p beta)."""
    V = _kernel_basis(spec, phase, p)
    return V @ V.conj().T


def partial_inverse(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """Pseudo-inverse of L(i p beta) on its range (the kernel complement).

    The matrix is skew-hermitian so kernel and range are orthogonal and
    L^(-1) L = Id - Pi(p beta) holds exactly.
    """
    L = harmonic_matrix(spec, phase, p)
    return np.linalg.pinv(L, rcond=1e-10)


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

    Fails with the offending (p, u, v) witness.  Refuses to run when the
    harmonics of the phase are not exactly {-1, 0, 1}.
    """
    harmonics = characteristic_harmonics(spec, phase, pmax=4)
    if set(harmonics) != {-1, 0, 1}:
        raise InputError(f"cascade assumptions violated: characteristic harmonics {harmonics}")
    projs = {p: harmonic_projector(spec, phase, p) for p in (-1, 0, 1)}
    rng = np.random.default_rng(WEAK_TRANSPARENCY_SEED)
    samples = [np.eye(spec.N)[i] for i in range(spec.N)]
    samples += [rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
                for _ in range(WEAK_TRANSPARENCY_SAMPLES)]
    scale = 1e-300
    worst = 0.0
    witness = None
    for p in (-1, 0, 1):
        combos = [(p1, p - p1) for p1 in (-1, 0, 1) if (p - p1) in (-1, 0, 1)]
        for u in samples:
            for v in samples:
                total = np.zeros(spec.N, dtype=complex)
                for (p1, p2) in combos:
                    pu = projs[p1] @ u
                    pv = projs[p2] @ v
                    term = spec.B(pu, pv)
                    scale = max(scale, supnorm(term))
                    total += term
                defect = supnorm(projs[p] @ total)
                if defect > worst:
                    worst = defect
                    witness = (p, u, v)
    passed = worst <= DEFAULT_POLICY.algebra_tol * max(scale, 1.0)
    return WeakTransparencyResult(passed=passed, max_defect=float(worst),
                                  witness=None if passed else witness)


# step of the centered finite difference that gives the group velocity
FD_STEP = 1e-5


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

    The group velocity is the frequency gradient of the branch carrying the
    phase (centered finite difference).  The cubic coefficient reduces the two
    quadratic feedback channels (second harmonic and mean mode) to a scalar
    against the polarization; their vectors are kept as the correctors.
    """
    e1 = np.asarray(e1, dtype=complex)
    # branch carrying the phase: the kernel of the characteristic matrix at k
    kernel = _kernel_basis(spec, phase, 1)
    if kernel.shape[1] != 1:
        # a coalescing phase admits scalar transport only when the supplied
        # polarization diagonalizes the transport within the eigenspace
        P = kernel @ kernel.conj().T
        vg = np.zeros(spec.d)
        for a in range(spec.d):
            Av = P @ (spec.Aj[a] @ e1)
            coef = complex(np.vdot(e1, Av))
            if supnorm(Av - coef * e1) > DEFAULT_POLICY.algebra_tol * max(1.0, supnorm(Av)):
                raise MultiplicityError(
                    "the phase sits at a crossing and the polarization does not "
                    "diagonalize the transport; a family of transport equations "
                    "would be required")
            vg[a] = coef.real
    else:
        def branch_value(xi):
            ev = np.linalg.eigvalsh(assemble_symbol(spec, xi))
            return ev[int(np.argmin(np.abs(ev - phase.omega)))]

        vg = np.zeros(spec.d)
        for a in range(spec.d):
            dx = np.zeros(spec.d)
            dx[a] = FD_STEP
            vg[a] = (branch_value(phase.k + dx) - branch_value(phase.k - dx)) / (2 * FD_STEP)

    B = spec.B
    second = B(e1, e1)
    L2 = harmonic_matrix(spec, phase, 2)
    Lm2 = np.linalg.pinv(L2, rcond=1e-10) @ second
    if supnorm(L2 @ Lm2 - second) > 1e-9 * max(1.0, supnorm(second)):
        raise NumericalError("second-harmonic source not invertible (harmonics condition fails)")
    em1 = e1.conj()
    mean = B(e1, em1) + B(em1, e1)
    L0inv = partial_inverse(spec, phase, 0)
    w0 = L0inv @ mean
    v = (B(em1, Lm2) + B(Lm2, em1)) + (B(e1, w0) + B(w0, e1))
    c3 = complex(np.vdot(e1, v))
    return TransportSetup(group_velocity=vg, cubic_coefficient=c3, second_harmonic=Lm2,
                          mean_mode=w0)


@dataclass
class WKBSolution:
    """Leading-order approximate solution on a periodic space-time grid."""

    spec: SystemSpec
    phase: Phase
    e1: np.ndarray
    x: np.ndarray
    times: np.ndarray
    g: np.ndarray                 # (len(times), len(x)) complex amplitude
    setup: TransportSetup
    with_correctors: bool = False
    corrector_vectors: dict = None   # p -> constant N-vector multiplying the g-monomial


def solve_transport(spec: SystemSpec, phase: Phase, e1, a0_samples, x, t_end,
                    n_steps=64, with_correctors=False) -> WKBSolution:
    """Leading amplitude of dg/dt + v_g . dg/dx = c3 |g|^2 g at n_steps + 1 equal times.

    Periodic in x, one spatial dimension.  Along each characteristic the exact
    solution is g = g0 exp(c3 m0 t phi(z)), with m0 = |g0|^2, z = 2 Re(c3) m0 t
    and phi(z) = -log1p(-z) / z; a snapshot is that factor on the datum, shifted
    by v_g t exactly per Fourier mode (2 FFTs).  Raises :class:`NumericalError`
    when Re c3 > 0 and |g|^2 = m0 / (1 - z) blows up by t_end.
    """
    if spec.d != 1:
        raise InputError("amplitude transport is implemented in one spatial dimension")
    setup = transport_setup(spec, phase, e1)
    x = np.asarray(x, dtype=float)
    L = float(x[-1] - x[0]) * len(x) / (len(x) - 1)
    kappa = 2 * np.pi * np.fft.fftfreq(len(x), d=L / len(x))
    vg = float(setup.group_velocity[0])
    c3 = setup.cubic_coefficient
    a = c3.real

    times = np.concatenate(([0.0], np.cumsum(np.full(n_steps, t_end / n_steps))))
    g0 = np.asarray(a0_samples, dtype=complex)
    m0 = np.abs(g0) ** 2
    if a > 0 and 2 * a * times[-1] * m0.max() >= 1:
        raise NumericalError(f"the amplitude blows up at t = {1 / (2 * a * m0.max()):.6g}, "
                             f"before t_end = {t_end:.6g}")
    g = np.empty((n_steps + 1, len(x)), dtype=complex)
    g[0] = g0
    for i, t in enumerate(times[1:], start=1):
        # c3 times the integral of |g|^2 along the characteristic, c3 m0 t phi(z)
        gain = (c3 * t) * m0 if a == 0 else np.log1p((-2 * a * t) * m0) * (-c3 / (2 * a))
        g[i] = np.fft.ifft(np.fft.fft(g0 * np.exp(gain)) * np.exp((-1j * vg * t) * kappa))

    correctors = None
    if with_correctors:
        correctors = {2: setup.second_harmonic, 0: setup.mean_mode,
                      -2: setup.second_harmonic.conj()}

    return WKBSolution(spec=spec, phase=phase, e1=np.asarray(e1, dtype=complex), x=x,
                       times=times, g=g, setup=setup,
                       with_correctors=with_correctors, corrector_vectors=correctors)


def _spectral_dx(f, kappa):
    return np.fft.ifft(1j * kappa * np.fft.fft(f))


def pde_residual(wkb: WKBSolution, epsilon: float, it=0):
    """Residual of the truncated expansion in the full equation at one snapshot.

    Evaluates d_t u_a + A0 u_a / eps + A(d_x) u_a - B(u_a, u_a)/sqrt(eps) on
    the spatial grid with spectral x-derivatives and analytic t-derivatives
    (through the amplitude equation), and returns its L2 norm.
    """
    spec, phase = wkb.spec, wkb.phase
    if spec.d != 1:
        raise InputError("the residual is evaluated in one spatial dimension (spec.d must be 1)")
    x = wkb.x
    n = len(x)
    L = float(x[-1] - x[0]) * n / (n - 1)
    kappa = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    k = float(phase.k[0])
    kmax_needed = abs(k) / epsilon
    if kmax_needed > 0:
        ppw = n / (L * kmax_needed / (2 * np.pi))
        if ppw < MIN_POINTS_PER_WAVELENGTH:
            raise NumericalError(
                f"grid resolves only {ppw:.1f} points per oscillation wavelength; need "
                f">= {MIN_POINTS_PER_WAVELENGTH}")

    g = wkb.g[it]
    t = wkb.times[it]
    vg = float(wkb.setup.group_velocity[0])
    c3 = wkb.setup.cubic_coefficient
    gx = _spectral_dx(g, kappa)
    gt = -vg * gx + c3 * np.abs(g) ** 2 * g

    # harmonic content: p -> (field, d_t field, d_x field) as (N, n) arrays
    e1 = wkb.e1
    harmonics = {
        1: (np.outer(e1, g), np.outer(e1, gt), np.outer(e1, gx)),
        -1: (np.outer(e1.conj(), g.conj()), np.outer(e1.conj(), gt.conj()),
             np.outer(e1.conj(), gx.conj())),
    }
    if wkb.with_correctors:
        se = np.sqrt(epsilon)
        u12, u10 = wkb.corrector_vectors[2], wkb.corrector_vectors[0]
        g2, g2t, g2x = g * g, 2 * g * gt, 2 * g * gx
        m, mt, mx = np.abs(g) ** 2, (g.conj() * gt + g * gt.conj()), (g.conj() * gx + g * gx.conj())
        harmonics[2] = (se * np.outer(u12, g2), se * np.outer(u12, g2t), se * np.outer(u12, g2x))
        harmonics[-2] = tuple(a.conj() for a in harmonics[2])
        harmonics[0] = (se * np.outer(u10, m), se * np.outer(u10, mt), se * np.outer(u10, mx))

    theta = (k * x - phase.omega * t) / epsilon
    u = np.zeros((spec.N, n), dtype=complex)
    ut = np.zeros_like(u)
    ux = np.zeros_like(u)
    for p, (f, ft, fx) in harmonics.items():
        osc = np.exp(1j * p * theta)
        u += f * osc
        ut += (ft + (-1j * p * phase.omega / epsilon) * f) * osc
        ux += (fx + (1j * p * k / epsilon) * f) * osc

    A1 = spec.Aj[0]
    res = ut + (spec.A0 @ u) / epsilon + A1 @ ux - spec.B(u, u) / np.sqrt(epsilon)
    dx = L / n
    return float(np.sqrt(np.sum(np.abs(res) ** 2) * dx))


@dataclass
class ConsistencyFit:
    epsilons: np.ndarray
    residuals: np.ndarray
    fitted_order: float


def consistency_residual(wkb_factory, spec: SystemSpec, epsilons) -> ConsistencyFit:
    """Fitted order of the expansion residual across a range of wavelengths.

    ``wkb_factory(eps)`` must return a :class:`WKBSolution` on a grid that
    resolves the oscillation at that epsilon; the result is the least-squares
    slope of log residual against log epsilon.  Each solution is scored at
    its last snapshot (:func:`pde_residual` at ``it=-1``).
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    res = []
    for eps in epsilons:
        wkb = wkb_factory(eps)
        res.append(pde_residual(wkb, eps, it=-1))
    res = np.array(res)
    if np.all(res < 1e-10):
        order = np.inf   # exact solution: residual at floor
    else:
        order = float(np.polyfit(np.log(epsilons), np.log(np.maximum(res, 1e-300)), 1)[0])
    return ConsistencyFit(epsilons=epsilons, residuals=res, fitted_order=order)
