"""End-to-end pipelines: analyze a system, run flow-bound and simulation
experiments on the analysed wave.

These are the entry points the command line and the experiment scripts call;
they wire the spectral field, resonance report, stability report, symbolic
flow, and simulator together with consistent defaults.  Everything about
the system comes from its :class:`SystemSpec`: the operator, the source, the
phase taken when none is given, and the reference direction of a phase whose
kernel is not one-dimensional.  The flow bound integrates each of its
trajectories once, into the near-resonance and off-resonance families
``{eps: [FlowTrajectory, ...]}`` that :func:`~oscillant.flow.verify_growth_bound`
checks; its report carries, per epsilon, the trajectory at the amplitude center
and the root xi0, which ``oscillant flow`` writes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import GrowthBoundReport, InteractionMatrix, integrate_flow, verify_growth_bound
# pair_coefficients_at stays importable here: bench/tracer.py patches it by this path
from .interaction import (PolarizationVectors, ReportInputs, StabilityReport, _sources,
                          pair_coefficients_at, polarization_vectors, stability_report)
from .numeric import InputError, NumericalError, bump_weight, fit_epsilons
from .resonance import (Phase, ResonanceReport, _bisect, _PairBatch, default_window,
                        find_resonances, harmonic)
from .simulate import (AmplitudeProfile, SimConfig, SweepReport, amplitude_norms,
                       epsilon_sweep, run_instability_experiment)
from .spectral import SpectralField, eigendecompose_field, uniform_grid
from .system import SystemSpec
from .wkb import amplitude_factor, transport_setup


@dataclass
class Analysis:
    """Everything the downstream experiments need about one system + phase."""

    spec: SystemSpec
    phase: Phase
    field: SpectralField
    pol: PolarizationVectors
    resonances: ResonanceReport
    stability: StabilityReport


# largest |k| the command line takes, whether --k moves the system's phase or pairs
# with --omega: the default window reaches 9 |k|, and the resonance search reads slopes
# out to 4 sqrt(d) times that, which must stay below ``resonance.MAX_SLOPE_RADIUS``
K_LIMIT = 1e150


def system_phase(spec: SystemSpec, k=None) -> Phase:
    """The system's phase entry; given ``k``, the phase at wavenumber (k, 0, ..)
    with |k| below ``k_bound`` on the entry's branch: the eigenvalue
    of the symbol at k whose ascending index the entry's omega has at its k, which
    must be simple at both wavenumbers (at the entry's k, the entry itself)."""
    phase = spec.phase
    if phase is None:
        raise InputError(f"system '{spec.name}' has no phase entry: give it a characteristic "
                         "phase with --omega/--k")
    if k is None:
        return phase
    kvec = np.zeros(spec.d)
    kvec[0] = k
    if not abs(k) < spec.k_bound:
        raise InputError(f"--k {k:g}: wavenumber too large: |k| must be below "
                         f"{spec.k_bound:.6g}, the bound of the system's phase")
    if np.array_equal(kvec, phase.k):
        return phase
    branch = np.flatnonzero(harmonic(spec, phase, 1).kernel)
    if len(branch) != 1:
        raise InputError(f"--k {k:g}: the phase entry's omega is not a simple eigenvalue at its "
                         f"k {phase.k.tolist()}, so it names no branch; give --omega with --k")
    at_k = Phase(harmonic(spec, Phase(0.0, kvec), 1).mu[branch[0]], kvec)
    if np.count_nonzero(harmonic(spec, at_k, 1).kernel) != 1:
        raise InputError(f"--k {k:g}: the phase entry's branch value {at_k.omega:.17g} is not a "
                         "simple eigenvalue there; give --omega with --k")
    return at_k


def report_inputs(d: int, amplitude: AmplitudeProfile = None, **kw) -> ReportInputs:
    """The stability report's inputs for an amplitude profile (default: unit
    gaussian), which supplies |a|_sup and the transform L1 norm entering the
    observation-time formulas; ``kw`` sets K, K_a and h."""
    amplitude = amplitude or AmplitudeProfile()
    x = np.linspace(-20 * amplitude.width, 20 * amplitude.width, 4096, endpoint=False)
    an = amplitude_norms(amplitude(x), x)
    return ReportInputs(d=d, a_sup=an.a_sup, a_hatL1=an.a_hatL1, **kw)


def analyze(spec: SystemSpec, phase: Phase = None, window=None, grid_n=2048,
            inputs: ReportInputs = None) -> Analysis:
    """Full analysis: spectral field, resonances, and the stability report
    (``inputs`` default: :func:`report_inputs` of the unit gaussian)."""
    if phase is None:
        phase = system_phase(spec)
    if window is None:
        window = default_window(spec, phase)
    if np.isscalar(window[0]):
        window = (tuple(window),)
    pad = float(np.max(np.abs(phase.k))) + 1e-9
    field_window = tuple((lo - pad, hi + pad) for (lo, hi) in window)
    field = eigendecompose_field(spec, uniform_grid(field_window, (grid_n,) * spec.d))
    pol = polarization_vectors(spec, phase)
    resonances = find_resonances(field, phase, window=window)
    stability = stability_report(field, pol, phase, resonances, inputs or report_inputs(spec.d))
    return Analysis(spec=spec, phase=phase, field=field, pol=pol,
                    resonances=resonances, stability=stability)


# ---------------------------------------------------------------------------
# flow-bound experiment
# ---------------------------------------------------------------------------

def _pair_sample(analysis: Analysis, xi):
    """The selected pair at one frequency: mu1, mu2, b+, b- and the other
    branches' eigenvalues."""
    i, j = analysis.stability.selected_pair
    pb = _PairBatch(analysis.field, analysis.phase, xi)
    bp, bm = pb.coupling(i, j, _sources(analysis.field, analysis.pol)[0])
    extra = tuple(float(pb.base.lams[0, b]) for b in range(analysis.field.J) if b not in (i, j))
    return (float(pb.shift.lams[0, i] - analysis.phase.omega), float(pb.base.lams[0, j]),
            bp[0], bm[0], extra)


def _group_velocity(analysis: Analysis) -> float:
    try:
        return float(transport_setup(analysis.spec, analysis.phase, analysis.pol.e1)
                     .group_velocity[0])
    except NumericalError:
        return 0.0


def _matrix_of_t(sample, vg, x, epsilon, h, amplitude, cutoff_active, policy):
    mu1, mu2, bp, bm, extra = sample
    ph = mu1 - mu2
    chi0 = bump_weight(ph, h, 2 * h) if cutoff_active else 1.0
    chi1 = bump_weight(ph, 2 * h, 4 * h) if cutoff_active else 1.0
    phi1 = bump_weight(x - amplitude.center, 4 * amplitude.width, 8 * amplitude.width)

    def envelope(t):
        return chi0 * phi1 * amplitude(x - vg * np.sqrt(epsilon) * t).astype(complex)
    return InteractionMatrix(mu1=mu1, mu2=mu2, b12=bp, b21=bm, epsilon=epsilon,
                             extra_diag=extra, chi1=chi1, envelope=envelope, policy=policy)


# kept only because bench/tracer.py patches it by this path; the bound builds its
# matrices with _matrix_of_t
def interaction_matrix_factory(analysis: Analysis, x, xi, epsilon, h=0.1,
                               amplitude: AmplitudeProfile = None, cutoff_active=True):
    """Time-dependent interaction matrix at one (x, xi) sample point.

    The coupled block carries the selected pair's coupling matrices weighted
    by the frequency cutoff (plateau at phase size h, gone by 2h), a spatial
    plateau around the amplitude maximum, and the transported amplitude value
    g(sqrt(eps) t, x); the remaining branches enter as decoupled imaginary
    diagonal entries.  The matrix carries the system's policy, whose ``rank_gap``
    decides the flow's closed-form path.
    """
    return _matrix_of_t(_pair_sample(analysis, xi), _group_velocity(analysis), x, epsilon, h,
                        amplitude or AmplitudeProfile(), cutoff_active, analysis.spec.policy)


def flow_bound_experiment(analysis: Analysis, epsilons, T=2.0, h=0.1,
                          amplitude: AmplitudeProfile = None) -> GrowthBoundReport:
    """Measure sup |S| e^{-t gamma+} across (x, xi) samples and epsilons.

    Three x samples, the amplitude center first, span 80% of its width either
    side.  Three near-resonance samples sit inside the cutoff plateau around
    the selected root: the root and the frequencies where |phase| is 0.1 h
    and 0.4 h.  Away samples sit at |phase| 0.4 and 0.6 with the coupling kept
    active, where the flow must stay O(1).  Each trajectory is integrated once,
    from t = 0 to T |log eps| by the step rule at t = 0, sampled by the rule of
    ``flow.FLOW_SAMPLES``; the report keeps, at each epsilon, the one at the
    amplitude center and the root xi0.  The epsilons are two distinct or more.
    """
    epsilons = fit_epsilons(epsilons, 2, "a growth exponent")
    # an overflowed cutoff edge or horizon would reach the step guard as nan or inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if not np.isfinite(4 * h):
            raise InputError(f"--h {h:g}: the cutoff edge 4h is not finite")
        for eps in epsilons:
            if not np.isfinite(T * abs(np.log(eps))):
                raise InputError(f"--T {T:g}: the horizon T |log eps| is not finite at eps {eps:g}")
    sr = analysis.stability
    amplitude = amplitude or AmplitudeProfile()
    if sr.selected_pair is None:
        raise InputError("no non-transparent resonance: nothing to integrate")
    xi0 = float(np.atleast_1d(sr.xi0)[0])
    gamma_plus = sr.gamma_plus
    x_samples = amplitude.center + amplitude.width * np.array([0.0, -0.8, 0.8])
    i, j = sr.selected_pair
    field, phase = analysis.field, analysis.phase

    def detuned(targets, reach, steps):
        """Frequencies right of xi0 where |resonant phase| reaches each target:
        sign bisection of |phase| - target (negative at the root xi0), every
        target in lockstep."""
        targets = np.asarray(targets, dtype=float)
        if not targets.size:
            return []

        def excess(x, idx):
            return np.abs(_PairBatch(field, phase, x).phase(i, j)) - targets[idx]
        n = len(targets)
        roots, _ = _bisect(excess, np.full(n, xi0), np.full(n, xi0 + reach), -np.ones(n),
                           maxit=steps)
        return [float(r) for r in roots[:, 0]]

    # frequencies inside the plateau: |resonant phase| <= h/2
    xi_samples = [xi0] + detuned(np.linspace(0.1, 0.4, 2) * h, 0.5, 40)

    vg = _group_velocity(analysis)

    def family(xis, cutoff_active):
        """{eps: the trajectories at every (x, xi) sample, x-major}."""
        samples = [_pair_sample(analysis, xi) for xi in xis]
        return {float(eps): [integrate_flow(_matrix_of_t(s, vg, x, eps, h, amplitude,
                                                         cutoff_active, analysis.spec.policy),
                                            T * abs(np.log(eps)))
                             for x in x_samples for s in samples] for eps in epsilons}

    # the first trajectory, which the report keeps, is at (amplitude center, xi0)
    return verify_growth_bound(family(xi_samples, True), gamma_plus,
                               away=family(detuned((0.4, 0.6), 3.0, 60), False))


# ---------------------------------------------------------------------------
# simulation wiring
# ---------------------------------------------------------------------------

def reference_solution(analysis: Analysis, amplitude: AmplitudeProfile, epsilon: float):
    """The analysed wave, (t, x) -> real (N, points): the leading-order WKB solution
    g e1 e^{i theta/eps} + c.c. (theta = k x - omega t, e1 the analysis' polarization)
    grown from the datum g = a, with g = a(x - v_g t) times :func:`amplitude_factor`.
    At a zero phase it is g e1, real: e1 is rotated onto the real vector spanning a
    real system's kernel there.  An amplitude blow-up raises :class:`NumericalError`.
    The factors fixed in t, the carrier e^{ikx/eps} and a(x) when v_g = 0, are formed
    once per grid; a sample multiplies the carrier by e^{-i omega t/eps} and forms the
    real wave 2 (Re e1 Re w - Im e1 Im w), w = g carrier, as one (N, 2) x (2, points)
    product.
    """
    phase, e1 = analysis.phase, analysis.pol.e1
    setup = transport_setup(analysis.spec, phase, e1)
    vg, c3 = float(setup.group_velocity[0]), setup.cubic_coefficient
    k = float(phase.k[0])
    oscillating = phase.omega != 0 or k != 0
    if not oscillating:
        e1, c3 = e1.real, c3.real
    parts = np.stack([2 * e1.real, -2 * e1.imag], axis=1)   # the wave is parts @ (Re w, Im w)
    fixed = {}   # the last grid x and its factors

    def ref(t, x):
        if not np.array_equal(fixed.get("x"), x):
            fixed.update(x=np.array(x), a=amplitude(x) if vg == 0 else None,
                         carrier=np.exp(1j * (k * x / epsilon)) if oscillating else None)
        a = fixed["a"] if vg == 0 else amplitude(x - vg * t)
        g = a * amplitude_factor(c3, t, a * a)
        if not oscillating:
            return np.outer(e1, g)
        w = g * (fixed["carrier"] * np.exp(-1j * phase.omega * t / epsilon))
        return parts @ np.array([w.real, w.imag])
    return ref


def simulation_config(analysis: Analysis, epsilon, **cfg_kw) -> SimConfig:
    """The :class:`SimConfig` of a run on the analysed system at ``epsilon``: the
    report's resonant datum (xi0, the phase's k and the unit e0, the first axis when
    the report has none) and the ``cfg_kw`` given, a None one taking SimConfig's
    default; ``T_obs``, unless given, is the report's T0 when that is finite."""
    sr = analysis.stability
    xi0 = float(np.atleast_1d(sr.xi0)[0]) if sr.xi0 is not None else 0.0
    e0 = sr.e0 if sr.e0 is not None else np.eye(analysis.spec.N)[0].astype(complex)
    given = {key: value for key, value in cfg_kw.items() if value is not None}
    if "T_obs" not in given and np.isfinite(sr.t0):
        given["T_obs"] = sr.t0
    return SimConfig(spec=analysis.spec, epsilon=epsilon, e0=e0 / np.linalg.norm(e0), xi0=xi0,
                     k=float(analysis.phase.k[0]), **given)


def run_simulation(spec: SystemSpec, epsilon, analysis: Analysis = None, **cfg_kw):
    """One run of :func:`simulation_config` of ``cfg_kw``; ``analysis`` defaults to the
    system's phase under the run's K and amplitude."""
    analysis = analysis or analyze(spec, inputs=report_inputs(
        spec.d, cfg_kw.get("amplitude"), K=cfg_kw.get("K", SimConfig.K)))
    cfg = simulation_config(analysis, epsilon, **cfg_kw)
    return run_instability_experiment(cfg, reference_solution(analysis, cfg.amplitude, epsilon))


def run_sweep(spec: SystemSpec, epsilons, analysis: Analysis = None, workers=1,
              **cfg_kw) -> SweepReport:
    """:func:`run_simulation` across epsilons, the law read in the runs' reduced clock;
    a system's ``time_factor_power`` tf (Brillouin's 1) then sets the clock of the
    reported t_stars (times eps^(tf - 1/2)) and rates (over it)."""
    analysis = analysis or analyze(spec, inputs=report_inputs(
        spec.d, cfg_kw.get("amplitude"), K=cfg_kw.get("K", SimConfig.K)))
    rep = epsilon_sweep(lambda eps: run_simulation(spec, eps, analysis, **cfg_kw),
                        epsilons, workers=workers)
    tf = spec.params.get("time_factor_power", 0.5)
    # scalar powers: an array's ** 0.5 is np.sqrt, which can differ from pow in the last bit
    clock = np.array([eps ** (tf - 0.5) for eps in rep.epsilons])
    rep.t_stars, rep.rates = rep.t_stars * clock, rep.rates / clock
    return rep
