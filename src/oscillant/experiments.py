"""End-to-end pipelines: analyze a system, run flow-bound and simulation
experiments with the catalog's reference data.

These are the entry points the command line and the experiment scripts call;
they wire the spectral field, resonance report, stability report, symbolic
flow, and simulator together with consistent defaults.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .flow import (FlowTrajectory, GrowthBoundReport, InteractionMatrix, bump_weight,
                   integrate_flow, largest_step, verify_growth_bound)
# pair_coefficients_at stays importable here: bench/tracer.py patches it by this path
from .interaction import (PolarizationVectors, ReportInputs, StabilityReport,
                          pair_coefficients_at, polarization_vectors, stability_report)
from .numeric import InputError, MultiplicityError, NumericalError
from .resonance import Phase, ResonanceReport, _bisect, _PairBatch, default_window, find_resonances
from .simulate import (AmplitudeProfile, SimConfig, SweepReport, amplitude_norms,
                       epsilon_sweep, run_instability_experiment)
from .spectral import SpectralField, eigendecompose_field, uniform_grid
from .system import SystemSpec
from .wkb import transport_setup


@dataclass
class Analysis:
    """Everything the downstream experiments need about one system + phase."""

    spec: SystemSpec
    phase: Phase
    field: SpectralField
    pol: PolarizationVectors
    resonances: ResonanceReport
    stability: StabilityReport


def resolve_polarization(spec: SystemSpec, phase: Phase) -> PolarizationVectors:
    """Polarization vectors, taking the catalog's closed form when the phase
    kernel is not one-dimensional (non-oscillating reference solutions)."""
    try:
        return polarization_vectors(spec, phase)
    except MultiplicityError:
        e1 = catalog.reference_polarization(spec, phase)
        return PolarizationVectors(e1=e1, em1=e1.conj(), residuals=(0.0, 0.0))


def analyze(spec: SystemSpec, phase: Phase = None, window=None, grid_n=2048,
            inputs: ReportInputs = None, amplitude: AmplitudeProfile = None) -> Analysis:
    """Full analysis: spectral field, resonances, and the stability report.

    The amplitude profile supplies |a|_sup and the transform L1 norm entering
    the observation-time formulas (catalog default: unit gaussian).
    """
    if phase is None:
        phase = catalog.default_phase(spec)
    if window is None:
        window = default_window(spec, phase)
    if np.isscalar(window[0]):
        window = (tuple(window),)
    pad = float(np.max(np.abs(phase.k))) + 1e-9
    field_window = tuple((lo - pad, hi + pad) for (lo, hi) in window)
    if spec.d == 1:
        grid = uniform_grid(field_window[0], grid_n)
    else:
        grid = uniform_grid(field_window, (grid_n, grid_n))
    field = eigendecompose_field(spec, grid)
    pol = resolve_polarization(spec, phase)
    resonances = find_resonances(field, phase, window=window)
    if inputs is None:
        amplitude = amplitude or AmplitudeProfile()
        x = np.linspace(-20 * amplitude.width, 20 * amplitude.width, 4096, endpoint=False)
        an = amplitude_norms(amplitude(x), x)
        inputs = ReportInputs(d=spec.d, a_sup=an.a_sup, a_hatL1=an.a_hatL1)
    stability = stability_report(field, pol, phase, resonances, inputs)
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
    bp, bm, _ = pb.coupling(i, j, analysis.pol.linearized_source(analysis.spec.B))
    extra = tuple(float(pb.base.lams[0, b]) for b in range(analysis.field.J) if b not in (i, j))
    return (float(pb.shift.lams[0, i] - analysis.phase.omega), float(pb.base.lams[0, j]),
            bp[0], bm[0], extra)


def _group_velocity(analysis: Analysis) -> float:
    try:
        return float(transport_setup(analysis.spec, analysis.phase, analysis.pol.e1)
                     .group_velocity[0])
    except NumericalError:
        return 0.0


def _matrix_of_t(sample, vg, x, epsilon, h, amplitude, cutoff_active):
    mu1, mu2, bp, bm, extra = sample
    ph = mu1 - mu2
    chi0 = bump_weight(ph, h, 2 * h) if cutoff_active else 1.0
    chi1 = bump_weight(ph, 2 * h, 4 * h) if cutoff_active else 1.0
    phi1 = bump_weight(x - amplitude.center, 4 * amplitude.width, 8 * amplitude.width)

    def envelope(t):
        return chi0 * phi1 * amplitude(x - vg * np.sqrt(epsilon) * t).astype(complex)
    return InteractionMatrix(mu1=mu1, mu2=mu2, b12=bp, b21=bm, epsilon=epsilon,
                             extra_diag=extra, chi1=chi1, envelope=envelope)


def interaction_matrix_factory(analysis: Analysis, x, xi, epsilon, h=0.1,
                               amplitude: AmplitudeProfile = None, cutoff_active=True):
    """Time-dependent interaction matrix at one (x, xi) sample point.

    The coupled block carries the selected pair's coupling matrices weighted
    by the frequency cutoff (plateau at phase size h, gone by 2h), a spatial
    plateau around the amplitude maximum, and the transported amplitude value
    g(sqrt(eps) t, x); the remaining branches enter as decoupled imaginary
    diagonal entries.
    """
    return _matrix_of_t(_pair_sample(analysis, xi), _group_velocity(analysis), x, epsilon, h,
                        amplitude or AmplitudeProfile(), cutoff_active)


def sample_trajectory(m: InteractionMatrix, t_end, samples=100) -> FlowTrajectory:
    """Integrate one sampled interaction matrix from t = 0 by the step rule at t = 0."""
    return integrate_flow(m, 0.0, t_end, largest_step(m, 0.0), samples=samples)


def flow_bound_experiment(analysis: Analysis, epsilons, T=2.0, h=0.1,
                          amplitude: AmplitudeProfile = None) -> GrowthBoundReport:
    """Measure sup |S| e^{-t gamma+} across (x, xi) samples and epsilons.

    Three x samples span 80% of the amplitude width either side of its
    center.  Three near-resonance samples sit inside the cutoff plateau around
    the selected root: the root and the frequencies where |phase| is 0.1 h
    and 0.4 h.  Away samples sit at |phase| 0.4 and 0.6 with the coupling kept
    active, where the flow must stay O(1).
    """
    sr = analysis.stability
    amplitude = amplitude or AmplitudeProfile()
    if sr.selected_pair is None:
        raise InputError("no non-transparent resonance: nothing to integrate")
    xi0 = float(np.atleast_1d(sr.xi0)[0])
    gamma_plus = sr.gamma_plus
    x_samples = amplitude.center + amplitude.width * np.linspace(-0.8, 0.8, 3)
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

    def make_factory(xis, cutoff_active):
        samples = [_pair_sample(analysis, xi) for xi in xis]

        def factory(eps, t_end):
            return [sample_trajectory(_matrix_of_t(s, vg, x, eps, h, amplitude, cutoff_active),
                                      t_end)
                    for x in x_samples for s in samples]
        return factory

    away = detuned((0.4, 0.6), 3.0, 60)
    return verify_growth_bound(make_factory(xi_samples, True), gamma_plus, T, epsilons,
                               away_factory=make_factory(away, False))


# ---------------------------------------------------------------------------
# simulation wiring
# ---------------------------------------------------------------------------

def reference_solution(spec: SystemSpec, phase: Phase, amplitude: AmplitudeProfile,
                       epsilon: float):
    """Reference state as a function (t, x) -> (N, points) for stock systems."""
    if catalog.stock_family(spec) == "three-wave":
        c1 = spec.params["c1"]

        def ref(t, x):
            a = amplitude(x - c1 * t)
            z = np.zeros_like(a)
            return np.asarray([a, z, z], dtype=complex)
        return ref
    # Klein-Gordon: leading-order two-scale solution with the transported amplitude
    e1 = catalog.kg_e1(spec, phase)
    ts = transport_setup(spec, phase, e1)
    vg = float(ts.group_velocity[0])
    c3 = ts.cubic_coefficient
    k = float(phase.k[0])

    def ref(t, x):
        g = amplitude(x - vg * t).astype(complex)
        if abs(c3) > 0:   # constant-|g| phase rotation approximation of the cubic term
            g = g * np.exp(c3.real * 0 + 1j * (c3.imag * np.abs(g) ** 2 * t))
        osc = np.exp(1j * (k * x - phase.omega * t) / epsilon)
        u = np.outer(e1, g)
        u *= osc
        u += u.conj()
        return u
    return ref


def simulation_config(spec: SystemSpec, analysis: Analysis, epsilon, K=3.0, K_prime=0.5,
                      grid_points=4096, amplitude: AmplitudeProfile = None,
                      T_obs=None, rho=None, t_end=None) -> SimConfig:
    sr = analysis.stability
    amplitude = amplitude or AmplitudeProfile()
    real_state = catalog.stock_family(spec) == "klein-gordon"
    xi0 = float(np.atleast_1d(sr.xi0)[0]) if sr.xi0 is not None else 0.0
    k = float(analysis.phase.k[0])
    e0 = sr.e0 if sr.e0 is not None else np.eye(spec.N)[0].astype(complex)
    e0 = e0 / np.linalg.norm(e0)
    if T_obs is None:
        T_obs = sr.t0 if np.isfinite(sr.t0) else 2.0
    return SimConfig(spec=spec, epsilon=epsilon, grid_points=grid_points,
                     amplitude=amplitude, K=K, K_prime=K_prime, T_obs=T_obs,
                     e0=e0, xi0=xi0, k=k, rho=rho, real_state=real_state, t_end=t_end)


def run_simulation(spec: SystemSpec, epsilon, analysis: Analysis = None, **cfg_kw):
    analysis = analysis or analyze(spec)
    amplitude = cfg_kw.pop("amplitude", None) or AmplitudeProfile()
    cfg = simulation_config(spec, analysis, epsilon, amplitude=amplitude, **cfg_kw)
    ref = reference_solution(spec, analysis.phase, amplitude, epsilon)
    return run_instability_experiment(cfg, ref)


def run_sweep(spec: SystemSpec, epsilons, analysis: Analysis = None,
              amplitude: AmplitudeProfile = None, workers=1, **cfg_kw) -> SweepReport:
    analysis = analysis or analyze(spec)
    amplitude = amplitude or AmplitudeProfile()
    tf = spec.params.get("time_factor_power", 0.5)

    def cfg_factory(eps):
        return simulation_config(spec, analysis, eps, amplitude=amplitude, **cfg_kw)

    def ref_factory(eps):
        return reference_solution(spec, analysis.phase, amplitude, eps)

    return epsilon_sweep(cfg_factory, ref_factory, epsilons, time_factor_power=tf,
                         workers=workers)
