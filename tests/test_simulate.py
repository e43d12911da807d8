import json
import pathlib

import numpy as np
import pytest

from oscillant import simulate
from oscillant.catalog import kg_equal, three_wave
from oscillant.experiments import (analyze, reference_solution, run_simulation, run_sweep,
                                   simulation_config)
from oscillant.numeric import InputError, NumericalError, bump_weight
from oscillant.resonance import Phase
from oscillant.simulate import (AmplitudeProfile, SimConfig, _Stepper, amplitude_norms,
                                epsilon_sweep, run_instability_experiment, snapshot_bytes)
from oscillant.system import BilinearMap, SystemSpec
from oscillant.wkb import TransportSetup, amplitude_factor, solve_transport, transport_setup

from conftest import assert_close
from oracles import complex_strang_step, full_state_rk4, snapshot_from_bytes


# ---------------------------------------------------------------------------
# amplitude norms
# ---------------------------------------------------------------------------

def test_amplitude_norms_gaussian_oracle():
    x = np.linspace(-25, 25, 4096, endpoint=False)
    an = amplitude_norms(np.exp(-x ** 2), x)
    assert an.a_sup == 1.0
    assert an.x0 == pytest.approx(0.0, abs=0.02)
    # transform of exp(-x^2) integrates to 2 pi (quadrature value)
    assert_close(an.a_hatL1, 2 * np.pi, 1e-6, "transform L1 norm")
    assert not an.periodization_warning


def test_amplitude_norms_scaling_linearity():
    x = np.linspace(-25, 25, 2048, endpoint=False)
    base = amplitude_norms(np.exp(-x ** 2), x)
    scaled = amplitude_norms(3.5 * np.exp(-x ** 2), x)
    assert_close(scaled.a_sup, 3.5 * base.a_sup, 1e-12, "sup scales")
    assert_close(scaled.a_hatL1, 3.5 * base.a_hatL1, 1e-9, "transform scales")


def test_amplitude_norms_zero_rejected():
    x = np.linspace(-5, 5, 64)
    with pytest.raises(InputError):
        amplitude_norms(np.zeros_like(x), x)


def test_amplitude_norms_periodization_flag():
    x = np.linspace(-2, 2, 128, endpoint=False)
    an = amplitude_norms(np.exp(-x ** 2), x)   # does not decay by the edge
    assert an.periodization_warning


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _tw_config(eps, **kw):
    defaults = dict(spec=three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)), epsilon=eps,
                    grid_points=2048, amplitude=AmplitudeProfile(width=2.0), K=3.0,
                    K_prime=0.6, T_obs=3.2, e0=np.array([0, 0, 1.0], dtype=complex),
                    xi0=0.0, k=0.0, rho=0.4)
    defaults.update(kw)
    return SimConfig(**defaults)


def _static_ref(t, x):
    a = np.exp(-(x / 2.0) ** 2)
    z = np.zeros_like(a)
    return np.asarray([a, z, z], dtype=complex)


def test_linear_step_conserves_l2():
    spec = three_wave(b=(0, 0, 0))
    cfg = _tw_config(1e-2, spec=spec)
    st = _Stepper(spec, 1e-2, cfg.x)
    u = np.asarray([np.exp(-cfg.x ** 2), 0.3 * np.exp(-(cfg.x - 2) ** 2),
                    np.zeros_like(cfg.x)])
    l0 = np.linalg.norm(u)
    u_hat = st.spectrum(u)
    for _ in range(200):
        u, u_hat = st.step(u_hat, 2e-3)
    assert abs(np.linalg.norm(u) - l0) / l0 <= 1e-10


def test_single_mode_phase_rotation():
    # linear-only evolution of one real Fourier mode rotates its coefficient by
    # the exact eigenvalue
    spec = three_wave(c=(1.0, 0.5, -0.5), b=(0, 0, 0))
    eps = 1e-2
    cfg = _tw_config(eps, spec=spec, grid_points=256, domain_length=2 * np.pi * 8)
    st = _Stepper(spec, eps, cfg.x)
    kap = 2 * np.pi / cfg.domain_length * 16
    u = np.zeros((3, 256))
    u[0] = np.cos(kap * cfg.x)
    dt = 1e-3
    v, _ = st.step(st.spectrum(u), dt)
    expect = np.real(np.exp(-1j * dt * 1.0 * kap) * np.exp(1j * kap * cfg.x))
    assert np.abs(v[0] - expect).max() <= 1e-12


@pytest.mark.parametrize("system", ["three-wave", "kg-equal"])
def test_stepper_matches_reference_strang_step(system, kg_analysis):
    # a dt halving mid-run and a shortened last step: the propagator must follow h
    # the oracle steps the full spectrum in complex arithmetic; on an even grid
    # the real stepper's half spectrum carries the Nyquist mode
    if system == "three-wave":
        spec, eps = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)), 1e-3
        x = np.linspace(-20.0, 20.0, 2048, endpoint=False)
        u = np.asarray(_static_ref(0.0, x)).real
        u[2] += 0.2 * np.exp(-x ** 2) * np.cos(3 * x)
        dts = [4e-3] * 4 + [2e-3] * 4 + [7e-4]
    else:
        spec, eps = kg_analysis.spec, 1e-2
        x = np.linspace(-6.0, 6.0, 4096, endpoint=False)
        u = reference_solution(kg_analysis, AmplitudeProfile(), eps)(0.0, x)
        u[0] += 0.3 * np.exp(-x ** 2) * np.cos(2.0 * x / eps)
        dts = [2e-3] * 4 + [1e-3] * 4 + [3e-4]
    st = _Stepper(spec, eps, x)
    reference = complex_strang_step(spec, eps, x)
    v, v_hat = u, st.spectrum(u)
    for dt in dts:
        u = reference(u, dt)
        v, v_hat = st.step(v_hat, dt)
        scale = np.abs(u).max()
        assert np.abs(v - u).max() <= 1e-12 * scale, (system, dt)
        assert np.abs(st.spectrum(v) - v_hat).max() <= 1e-12 * np.abs(v_hat).max()


def test_run_matches_complex_arithmetic_oracle(three_wave_analysis, monkeypatch):
    # the real run replayed step for step by the complex oracle, from its datum
    steps, _ = _record_steps(monkeypatch)
    data = []
    spectrum = _Stepper.spectrum

    def recorded_spectrum(self, u, out=None):
        if not data:
            data.append(np.array(u))   # the first transform is the datum's
        return spectrum(self, u, out=out)
    monkeypatch.setattr(_Stepper, "spectrum", recorded_spectrum)
    run = _recorded_run("three-wave", None, three_wave_analysis)
    assert run.final_state.dtype == float and data[0].dtype == float
    step = complex_strang_step(run.config.spec, run.config.epsilon, run.config.x)
    u = data[0]
    for h in steps:
        u = step(u, h)
    scale = np.abs(run.final_state).max()
    assert np.abs(u - run.final_state).max() <= 1e-13 * scale


def test_complex_reference_datum_refused():
    def ref(t, x):
        return np.asarray(_static_ref(t, x)) * np.exp(1e-3j)
    with pytest.raises(InputError, match="imaginary"):
        run_instability_experiment(_tw_config(1e-2, t_end=0.1), ref)


@pytest.mark.parametrize("c3", [-0.8 + 0.5j, 0.8 - 0.3j])
def test_reference_is_the_analysed_wkb_wave(kg_analysis, monkeypatch, c3):
    # g e1 e^{i theta/eps} + c.c. with the analysis' e1 and the amplitude that
    # solve_transport forms; injected v_g = 0.7, and Re c3 = 0.8 on a unit peak
    # blows up at t = 0.625
    spec, phase, e1 = kg_analysis.spec, kg_analysis.phase, kg_analysis.pol.e1
    setup = TransportSetup(group_velocity=np.array([0.7]), cubic_coefficient=c3,
                           second_harmonic=np.zeros(spec.N), mean_mode=np.zeros(spec.N))
    for module in ("wkb", "experiments"):
        monkeypatch.setattr(f"oscillant.{module}.transport_setup", lambda *args: setup)
    x, eps = np.linspace(-12, 12, 1024, endpoint=False), 1e-2
    g = solve_transport(spec, phase, e1, AmplitudeProfile()(x), x, t_end=0.5,
                        n_steps=4).amplitude(-1)
    wave = 2 * (np.outer(e1, g) * np.exp(1j * (phase.k[0] * x - phase.omega * 0.5) / eps)).real
    ref = reference_solution(kg_analysis, AmplitudeProfile(), eps)
    u = ref(0.5, x)
    assert u.dtype == float
    assert np.abs(u - wave).max() <= 1e-14 * np.abs(wave).max()   # 4.4e-16 measured
    if c3.real > 0:
        with pytest.raises(NumericalError, match="blows up"):
            ref(0.7, x)


def test_zero_phase_reference_is_the_real_transported_datum(three_wave_analysis):
    # three-wave at (0, 0): e1 = (1, 0, 0), v_g = c1 and no cubic term
    an = three_wave_analysis()
    x = np.linspace(-20.0, 20.0, 2048, endpoint=False)
    u = reference_solution(an, AmplitudeProfile(width=2.0), 1e-2)(0.3, x)
    assert u.dtype == float
    assert np.array_equal(u, [AmplitudeProfile(width=2.0)(x - 0.3), 0 * x, 0 * x])


@pytest.mark.parametrize("system", ["kg-equal", "three-wave"])
def test_reference_forms_fixed_factors_once_per_grid(system, kg_analysis, three_wave_analysis):
    # one reference called on two grids in turn: the carrier (kg-equal, v_g != 0)
    # or a(x) (three-wave at c1 = 0, v_g = 0) kept from one grid must not leak into
    # the other, and writing into a returned wave must not change the next one
    an = kg_analysis if system == "kg-equal" else three_wave_analysis(c=(0.0, 0.5, -0.5))
    eps, amplitude = 1e-2, AmplitudeProfile()
    setup = transport_setup(an.spec, an.phase, an.pol.e1)
    vg, c3 = float(setup.group_velocity[0]), setup.cubic_coefficient
    assert (vg == 0) == (system == "three-wave")
    k, omega, e1 = float(an.phase.k[0]), an.phase.omega, an.pol.e1
    ref = reference_solution(an, amplitude, eps)
    grids = [np.linspace(-12.0, 12.0, 2048, endpoint=False),
             np.linspace(-10.0, 10.0, 2048, endpoint=False)]
    for t in (0.0, 0.3, 0.7):
        for x in grids:
            a = amplitude(x - vg * t)
            g = a * amplitude_factor(c3, t, a * a)
            if system == "kg-equal":
                wave = 2 * (np.outer(e1, g) * np.exp(1j * (k * x - omega * t) / eps)).real
            else:
                wave = np.outer(e1.real, g)
            u = ref(t, x)
            assert u.dtype == float
            assert np.abs(u - wave).max() <= 1e-14 * np.abs(wave).max(), (t, x[0])
            if u.flags.writeable:
                u.fill(np.nan)
            assert np.abs(ref(t, x) - wave).max() <= 1e-14 * np.abs(wave).max()


def test_real_state_step_carries_the_state_spectrum():
    # a real state's Nyquist coefficient is real: the carried half spectrum
    # must stay the spectrum of the returned state even with Nyquist content
    x = np.linspace(-6.0, 6.0, 256, endpoint=False)
    st = _Stepper(kg_equal(), 1e-2, x)
    u = np.outer(np.arange(1.0, 7.0), np.exp(-x ** 2) + 0.1 * (-1.0) ** np.arange(256))
    v, v_hat = st.step(st.spectrum(u), 1e-3)
    assert v.dtype == float
    assert np.abs(st.spectrum(v) - v_hat).max() <= 1e-12 * np.abs(v_hat).max()


def _count_transforms(monkeypatch):
    """Calls and rows transformed (the leading axis of each input) per transform name."""
    counts, rows = {}, {}
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, *args, _f=getattr(np.fft, name), _name=name, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            rows[_name] = rows.get(_name, 0) + (len(a) if np.ndim(a) == 2 else 1)
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    return counts, rows


def _record_steps(monkeypatch):
    steps, props = [], []
    step, propagator = _Stepper.step, _Stepper.propagator

    def recorded_step(self, u_hat, h):
        steps.append(h)
        return step(self, u_hat, h)

    def recorded_propagator(self, h):
        props.append(propagator(self, h))   # kept alive, so ids are distinct builds
        return props[-1]
    monkeypatch.setattr(_Stepper, "step", recorded_step)
    monkeypatch.setattr(_Stepper, "propagator", recorded_propagator)
    return steps, props


@pytest.mark.parametrize("system, rows_per_step, calls_per_step", [
    ("three-wave", 6, 3), ("three-wave-c1", 8, 3), ("kg-equal", 12, 5)],
    ids=["three-wave", "three-wave-c1", "kg-equal"])
def test_step_transform_and_propagator_counts(system, rows_per_step, calls_per_step,
                                              monkeypatch, kg_analysis):
    # a step transforms the rows B reads, B's increment on the rows it writes and
    # the rows not frozen: kg-equal reads {1, 2, 4, 5} and writes {1, 4}; the
    # three-wave pump row 0 is frozen at c1 = 0 (2 + 2 + 2 rows), not at c1 = 1
    # (3 + 2 + 3).  On top of that, every row once for the datum and at each of the
    # propagator builds, one per distinct step size; on the half spectrum only
    steps, props = _record_steps(monkeypatch)
    counts, rows = _count_transforms(monkeypatch)
    if system == "kg-equal":
        run = run_simulation(kg_equal(), 1e-2, analysis=kg_analysis, grid_points=16384,
                             t_end=0.05)
    else:
        spec = three_wave(c=(1.0, 0.5, -0.5) if system == "three-wave-c1" else (0.0, 0.5, -0.5),
                          b=(0.0, 1.0, 1.0))
        run = run_instability_experiment(_tw_config(1e-2, spec=spec, t_end=0.3), _static_ref)
    assert set(counts) == {"rfft", "irfft"}
    assert run.verdict == "completed"
    builds = len({id(p) for p in props})
    assert builds == len(set(steps)) >= 2   # the shortened last step changes h
    N = run.config.spec.N
    assert sum(rows.values()) <= rows_per_step * len(steps) + N * (1 + builds)
    # kg-equal's rows {1, 2}, {4, 5} and {1}, {4} are not contiguous: one call a run
    assert sum(counts.values()) <= calls_per_step * len(steps) + 1 + builds


def test_transport_mode_exact():
    # quadratic term off in the first component: u1 rides its characteristic
    spec = three_wave(c=(1.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    eps = 1e-2
    cfg = SimConfig(spec=spec, epsilon=eps, grid_points=2048,
                    amplitude=AmplitudeProfile(width=2.0), t_end=0.5,
                    e0=np.array([0, 0, 1.0], dtype=complex))

    def ref(t, x):
        a = np.exp(-((x - 1.0 * t) / 2.0) ** 2)
        z = np.zeros_like(a)
        return np.asarray([a, z, z], dtype=complex)

    run = run_instability_experiment(cfg, ref, perturbation=lambda x: np.zeros((3, len(x))))
    assert run.norm_dev.max() <= 1e-9   # exact solution: deviation at the floor


def test_initial_deviation_matches_datum():
    eps = 1e-2
    cfg = _tw_config(eps)
    run = run_instability_experiment(cfg, _static_ref)
    phi = bump_weight(cfg.x - 0.0, cfg.phi0_radius / 2, cfg.phi0_radius)
    dx = cfg.domain_length / cfg.grid_points
    expect = eps ** cfg.K * np.sqrt(np.sum(phi ** 2) * dx)
    assert abs(run.norm_dev[0] - expect) / expect <= 1e-6


def test_reality_preserved_for_kg():
    spec = kg_equal()
    an = analyze(spec)
    run = run_simulation(spec, 1e-2, analysis=an, grid_points=16384, K=3.0,
                         t_end=0.05)
    assert run.verdict == "completed"
    # real systems carry conjugate-symmetric spectra: total norm stays real-like
    assert np.all(np.isfinite(run.norm_total))


def test_stable_case_bounded():
    spec = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, -1.0))
    for eps in (1e-2, 1e-3):
        cfg = _tw_config(eps, spec=spec, t_end=1.0)
        run = run_instability_experiment(cfg, _static_ref)
        assert run.norm_dev.max() / run.norm_dev[0] <= 10.0


def test_unstable_rate_and_localization():
    eps = 1e-3
    run = run_instability_experiment(_tw_config(eps), _static_ref)
    assert (run.verdict, run.stop_reason) == ("completed", "law read")
    assert abs(run.fitted_rate * np.sqrt(eps) - 1.0) <= 0.15
    i = np.searchsorted(run.times, run.t_star)
    assert run.norm_dev_ball[i] / run.norm_dev[i] >= 0.5
    # the growth halves dt past t*, which a run reaches when its growth window never
    # opens (K = 1: 5 n_dev(0) > 0.2 eps^K'): dt_used is the first dt (sup|u| starts
    # at 1) over 2^halvings
    cfg = _tw_config(eps, K=1.0, t_end=0.3)
    run = run_instability_experiment(cfg, _static_ref)
    assert (run.verdict, run.stop_reason) == ("completed", "t_end")
    dt0 = min(0.1 * np.sqrt(eps) / cfg.spec.B.norm_bound, cfg.t_end / 16)
    assert run.halvings >= 1 and run.dt_used * 2 ** run.halvings == dt0


def test_step_guard_holds_after_dt_halvings(monkeypatch):
    # at K = 1 the growth window never opens, so the run follows the nonlinear blow-up
    # past t*, dt halving at a steady pace in t: each dt level takes about twice the
    # steps of the last.  Its first dt asks for 221 steps, under the 20,000 cap; after
    # the ninth halving it has taken 3,610 and the estimate reads about 24,900
    monkeypatch.setattr(simulate, "MAX_RUN_STEPS", 20_000)
    with pytest.raises(InputError, match=r"2\.49e\+04 steps .* 9 dt halvings"):
        run_instability_experiment(_tw_config(1e-3, K=1.0, grid_points=1024), _static_ref)


def test_stopped_run_reads_the_law_of_the_run_to_t_end(monkeypatch):
    # random unstable three-wave systems (b2 b3 > 0) around the static pump (c1 = 0):
    # a run that stops once its law is read reports the t* and the rate of the same
    # run with the stop rule off, bit for bit, from a prefix of that run's samples
    rng = np.random.default_rng(5)
    stops = 0
    for _ in range(4):
        b23 = rng.uniform(0.3, 2.0, 2) * rng.choice([-1.0, 1.0])
        spec = three_wave(c=(0.0, *rng.uniform(-1, 1, 2)), b=(rng.uniform(-1, 1), *b23))
        for eps in (1e-2, 1e-3):
            cfg = _tw_config(eps, spec=spec, grid_points=1024)
            run = run_instability_experiment(cfg, _static_ref)
            with monkeypatch.context() as m:
                m.setattr(simulate, "_law_read", lambda *args: False)
                full = run_instability_experiment(cfg, _static_ref)
            assert run.verdict == "completed" and run.stop_reason in ("law read", "t_end")
            assert (run.t_star, run.fitted_rate) == (full.t_star, full.fitted_rate)
            n = len(run.times)
            for key in SERIES:
                assert np.array_equal(getattr(run, key), getattr(full, key)[:n]), key
            stops += run.stop_reason == "law read"
    assert stops >= 4


def test_law_read_needs_t_star_a_closed_window_and_three_window_samples():
    # window (1, 10), threshold 50: each series below misses one of the three
    window, thresh = (1.0, 10.0), 50.0
    n_dev, n_ball = [0.1, 2.0, 4.0, 8.0, 60.0], [0.0, 1.0, 2.0, 4.0, 55.0]
    assert simulate._law_read(n_dev, n_ball, window, thresh)
    assert not simulate._law_read(n_dev, n_ball[:-1] + [45.0], window, thresh)
    assert not simulate._law_read(n_dev + [9.0], n_ball + [5.0], window, thresh)
    assert not simulate._law_read(n_dev[:1] + n_dev[2:], n_ball[:1] + n_ball[2:], window, thresh)


def test_blowup_past_t_star_is_not_run():
    # K = 2, T_obs = 8: run to t_end it follows the nonlinear blow-up past t* at ever
    # smaller dt, over 100,000 steps; it ends at the first sample past t*
    eps = 1e-3
    cfg = _tw_config(eps, K=2.0, T_obs=8.0)
    run = run_instability_experiment(cfg, _static_ref)
    assert (run.verdict, run.stop_reason, run.halvings) == ("completed", "law read", 0)
    t_end = cfg.T_obs * np.sqrt(eps) * abs(np.log(eps))
    assert run.t_star <= run.times[-1] < t_end / 4


def test_spectral_convergence_grid_doubling():
    eps = 1e-2
    runs = []
    for n in (2048, 4096):
        cfg = _tw_config(eps, grid_points=n, t_end=0.3)
        runs.append(run_instability_experiment(cfg, _static_ref))
    a, b = runs[0].norm_dev[-1], runs[1].norm_dev[-1]
    assert abs(a - b) / b <= 0.01


def test_sweep_scaling(three_wave_analysis):
    spec = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
    rep = run_sweep(spec, [1e-2, 1e-3, 1e-4], analysis=an,
                    amplitude=AmplitudeProfile(width=2.0),
                    K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4)
    assert rep.ratio_spread <= 0.25
    assert rep.rate_spread <= 0.15
    assert not rep.flags


def test_sweep_needs_three_distinct_epsilons():
    # refused before any run: a repeat would weigh its epsilon twice in the spreads
    for epsilons in ([1e-2, 1e-3], [1e-2, 1e-3, 1e-2]):
        with pytest.raises(InputError, match="three distinct epsilons or more, none repeated"):
            epsilon_sweep(None, epsilons)


def test_brillouin_scaling_carries_time_factor():
    # the singular-scaling entry reduces to the standard one; recorded times
    # carry the extra sqrt(eps), so amplification lands at eps |log eps|
    from oscillant.catalog import brillouin
    spec = brillouin(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
    rep = run_sweep(spec, [1e-2, 1e-3, 1e-4], analysis=an,
                    amplitude=AmplitudeProfile(width=2.0),
                    K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4)
    assert rep.ratio_spread <= 0.25
    # ratios are normalized against eps |log eps|: recompute the raw times
    for eps, t in zip(rep.epsilons, rep.t_stars):
        assert t / (eps * abs(np.log(eps))) == pytest.approx(
            rep.t_star_ratios[list(rep.epsilons).index(eps)], rel=1e-12)


def test_blowup_verdict():
    # strong focusing coupling with a huge perturbation blows past the step floor
    spec = three_wave(c=(0.0, 0.0, 0.0), b=(1.0, 1.0, 1.0))
    cfg = SimConfig(spec=spec, epsilon=1e-4, grid_points=256, domain_length=20.0,
                    t_end=5.0, K=0.0, e0=np.array([1, 1, 1], dtype=complex) / np.sqrt(3),
                    amplitude=AmplitudeProfile(width=1.0))
    run = run_instability_experiment(cfg, lambda t, x: np.zeros((3, len(x))),
                                     perturbation=lambda x: 5.0 * np.ones((3, len(x)), complex))
    assert run.verdict == "unbounded" and run.halvings == 21


def test_snapshot_roundtrip():
    cfg = _tw_config(1e-2, grid_points=256)
    state = np.asarray(_static_ref(0.0, cfg.x))
    blob = snapshot_bytes(state, cfg, 0.25)
    back, meta = snapshot_from_bytes(blob)
    assert np.array_equal(back, state)
    assert meta["epsilon"] == 1e-2 and meta["t"] == 0.25 and meta["grid_points"] == 256


def test_grid_power_of_two_required():
    with pytest.raises(InputError):
        SimConfig(spec=three_wave(), epsilon=1e-2, grid_points=1000)


def test_simulator_rejects_d2_systems():
    # the stepper reads only A1; a d=2 system must not run as a 1-d one
    with pytest.raises(InputError):
        SimConfig(spec=kg_equal(d=2), epsilon=1e-2)


def test_resolution_guard():
    cfg = SimConfig(spec=kg_equal(), epsilon=1e-4, grid_points=256, domain_length=40.0,
                    xi0=1.45, k=1.0, e0=np.zeros(6, dtype=complex))
    with pytest.raises(InputError):
        cfg.check_resolution()


@pytest.mark.parametrize("system", ["three-wave", "kg-equal"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
@pytest.mark.parametrize("width", [0.5, 1.0, 2.0, 3.0])
def test_default_grid_keeps_the_spacing_on_the_datums_support(system, eps, width, kg_analysis,
                                                              three_wave_analysis):
    # neither grid_points nor domain_length: 4096 points on 40 widths, both halved
    # while the halved domain holds the datum's radius plus the transport reach to
    # either side; the datum at the domain's edge is below 2^-52 of its maximum
    an = kg_analysis if system == "kg-equal" else three_wave_analysis()
    amp = AmplitudeProfile(width=width)
    cfg = simulation_config(an, eps, amplitude=amp)
    assert cfg.domain_length / cfg.grid_points == 40 * width / 4096
    a = amp(cfg.x)
    assert max(a[0], a[-1]) <= 2.0 ** -52 * a.max()
    radius = max(np.sqrt(52 * np.log(2)) * width, 2 * width, cfg.rho)
    # the largest |eigenvalue of A1| is 1 on both systems (three-wave's c1, kg-equal's)
    reach = cfg.T_obs * np.sqrt(eps) * abs(np.log(eps))
    assert cfg.domain_length >= 2 * (radius + reach) > cfg.domain_length / 2
    # kg-equal's reach at eps 1e-2 (speed 1, horizon 4.3) keeps 40 widths under width 2
    assert cfg.grid_points == (4096 if (system, eps) == ("kg-equal", 1e-2) and width < 2
                               else 2048)
    # a given grid or domain takes the other's default: today's 40 widths or 4096 points
    given = simulation_config(an, eps, amplitude=amp, grid_points=1024)
    assert (given.grid_points, given.domain_length) == (1024, 40 * width)
    given = simulation_config(an, eps, amplitude=amp, domain_length=24.0)
    assert (given.grid_points, given.domain_length) == (4096, 24.0)


def test_default_grid_runs_read_the_40_width_law():
    # random unstable three-wave systems drawn as the benchmark draws them (moving
    # pump, b2 b3 > 0): t* and the rate on the derived grid match the run on 4096
    # points over 40 widths; measured over 36 systems at eps 1e-2..1e-4, t* agreed
    # to 6.8e-15 and the rate to 3.4e-10 (at eps 1e-4) relative
    rng = np.random.default_rng(11)
    width, read = 2.0, 0
    for _ in range(3):
        c = (rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7), rng.uniform(-0.7, -0.3))
        sign = rng.choice((-1.0, 1.0))
        b = (rng.uniform(-1.0, 1.0), sign * rng.uniform(0.5, 1.5), sign * rng.uniform(0.5, 1.5))

        def ref(t, x, c1=c[0]):
            a = np.exp(-((x - c1 * t) / width) ** 2)
            return np.stack([a, np.zeros_like(a), np.zeros_like(a)])

        for eps in (1e-2, 1e-3, 1e-4):
            kw = dict(spec=three_wave(c=c, b=b), epsilon=eps, amplitude=AmplitudeProfile(width=width),
                      K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4, e0=np.array([0, 0, 1.0], dtype=complex))
            run = run_instability_experiment(SimConfig(**kw), ref)
            full = run_instability_experiment(
                SimConfig(grid_points=4096, domain_length=40 * width, **kw), ref)
            assert run.config.grid_points == 2048
            assert run.fitted_rate == pytest.approx(full.fitted_rate, rel=1e-9, abs=0)
            assert np.isfinite(run.t_star) == np.isfinite(full.t_star)
            if np.isfinite(full.t_star):
                assert run.t_star == pytest.approx(full.t_star, rel=1e-13, abs=0)
                read += 1
    assert read >= 6


# ---------------------------------------------------------------------------
# the stepper's workspace
# ---------------------------------------------------------------------------

def _dense_half(P, u_hat):
    """Every (i, j) slice of the propagator applied, zero or not."""
    out = P[:, 0] * u_hat[0]
    for j in range(1, len(u_hat)):
        out += P[:, j] * u_hat[j]
    return out


def _one_shot(spec, eps, x, h):
    """The eigendecomposition over all modes in one call, and its dense (N, N, modes)
    half-step propagator."""
    kappa = 2 * np.pi * np.fft.rfftfreq(len(x), d=x[1] - x[0])
    evals, evecs = np.linalg.eigh(spec.A0[None] / (1j * eps) + kappa[:, None, None] * spec.Aj[0])
    ph = np.exp(-1j * (h / 2) * evals)
    P = ((evecs * ph[:, None, :]) @ evecs.conj().transpose(0, 2, 1)).transpose(1, 2, 0)
    return evals, evecs, P


def _unstored(entries, N):
    """The (N, N) mask of the entries a stepper's dict leaves out."""
    mask = np.ones((N, N), dtype=bool)
    for i, j in entries:
        mask[i, j] = False
    return mask


def _coupled_spec(N=4, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((N, N))
    s = rng.standard_normal((N, N))
    return SystemSpec("coupled", N, 1, a - a.T, (s + s.T,), BilinearMap(N, ()))


@pytest.mark.parametrize("system, nonzero", [("coupled", 16), ("kg-equal", 18),
                                             ("three-wave", 3)])
def test_linear_half_skips_zero_entries_only(system, nonzero):
    # the stored-entry product equals the dense one (-0 == +0 here); the
    # Klein-Gordon blocks decouple u from v, the three-wave propagator is diagonal,
    # and every entry left unstored is exactly 0 at every mode
    spec = {"coupled": _coupled_spec(), "kg-equal": kg_equal(),
            "three-wave": three_wave(b=(0.0, 1.0, 1.0))}[system]
    x = np.linspace(-6.0, 6.0, 256, endpoint=False)
    st = _Stepper(spec, 1e-2, x)
    u_hat = st.spectrum(np.random.default_rng(0).standard_normal((spec.N, 256)))
    prop = st.propagator(1e-3)
    _, _, P = _one_shot(spec, 1e-2, x, 1e-3)
    assert len(prop) == nonzero
    assert all(np.array_equal(entry, P[ij]) for ij, entry in prop.items())
    assert not np.any(P[_unstored(prop, spec.N)])
    assert np.array_equal(st.linear_half(prop, u_hat, np.empty_like(u_hat), st._rows),
                          _dense_half(P, u_hat))


def _fed_spec(N=4, seed=5):
    """A random coupled system whose B writes every row."""
    spec = _coupled_spec(N, seed)
    rng = np.random.default_rng(seed)
    triplets = tuple((o, int(l), int(r), float(v)) for o in range(N)
                     for l, r, v in zip(rng.integers(0, N, 2), rng.integers(0, N, 2),
                                        rng.standard_normal(2)))
    return SystemSpec("fed", N, 1, spec.A0, spec.Aj, BilinearMap(N, triplets))


@pytest.mark.parametrize("system, moved", [("kg-equal", [slice(1, 2), slice(4, 5)]),
                                           ("three-wave", [slice(1, 3)]),
                                           ("fed", [slice(0, 4)])])
def test_rk4_on_written_rows_equals_full_state_rk4(system, moved):
    # RK4 runs on the rows a nonzero triplet writes (three-wave's (0, 1, 2, 0.0)
    # writes none); the others get k = 0, so the full-state step leaves them too
    spec = {"kg-equal": kg_equal(), "three-wave": three_wave(b=(0.0, 1.0, 1.0)),
            "fed": _fed_spec()}[system]
    x = np.linspace(-6.0, 6.0, 256, endpoint=False)
    st = _Stepper(spec, 1e-2, x)
    assert st._moved == moved
    u = np.random.default_rng(1).standard_normal((spec.N, 256))
    want = full_state_rk4(st.source, u, 1e-2)
    got = u.copy()
    inc = st.nonlinear(got, 1e-2)
    for s in moved:
        got[s] += inc[s]
    assert np.array_equal(got, want)
    assert not np.array_equal(got, u)


def _restricted_spec(seed, frozen=False):
    """A random coupled system whose B reads and writes a strict subset of its rows.
    With ``frozen``, row 0 has zero speed and no A0 coupling, and B reads it but
    does not write it, as three-wave's pump row at c1 = 0."""
    rng = np.random.default_rng(seed)
    N = 3 if frozen else 4
    spec = _coupled_spec(N, seed)
    A0, A1 = spec.A0, spec.Aj[0]
    if frozen:
        A0[0], A0[:, 0], A1[0], A1[:, 0] = 0.0, 0.0, 0.0, 0.0
        outs, reads = [1, 2], [0, 1, 2]
    else:
        outs = reads = sorted(rng.choice(N, N - 1, replace=False).tolist())
    triplets = tuple((int(o), int(l), int(r), float(v)) for o in outs
                     for l, r, v in zip(rng.choice(reads, 2), rng.choice(reads, 2),
                                        rng.standard_normal(2)))
    return SystemSpec("restricted", N, 1, A0, (A1,), BilinearMap(N, triplets))


@pytest.mark.parametrize("seed, frozen", [(0, False), (1, False), (2, False), (3, True)])
def test_restricted_step_matches_reference_strang_step(seed, frozen):
    # rows B does not read skip the first inverse transform and a frozen row every
    # transform; from a spectrum alone (the workspace state is nan), through a dt
    # halving and a shortened last step, against the complex full-spectrum step
    spec, eps = _restricted_spec(seed, frozen), 1e-2
    x = np.linspace(-6.0, 6.0, 512, endpoint=False)
    u = 0.3 * np.exp(-x ** 2) * np.cos(np.outer(np.arange(1, spec.N + 1), 2.0 * x))
    st = _Stepper(spec, eps, x)
    st._u.fill(np.nan)
    reference = complex_strang_step(spec, eps, x)
    v_hat = st.spectrum(u)
    for dt in [4e-3] * 4 + [2e-3] * 4 + [7e-4]:
        u = reference(u, dt)
        v, v_hat = st.step(v_hat, dt)
        assert np.abs(v - u).max() <= 1e-12 * np.abs(u).max(), (seed, dt)
        assert np.abs(st.spectrum(v) - v_hat).max() <= 1e-12 * np.abs(v_hat).max()
    live = [i for i, _ in st._live]
    assert live == ([1, 2] if frozen else list(range(spec.N)))
    assert sum(s.stop - s.start for s in st._read) < spec.N   # some row skips the first
    if frozen:   # the frozen row's spectrum stays bit for bit
        first = v_hat[0].copy()
        for _ in range(50):
            v, v_hat = st.step(v_hat, 7e-4)
        assert np.array_equal(v_hat[0], first)


def test_steps_allocate_less_than_one_state():
    # after the first step every array a step needs is in the workspace
    import tracemalloc
    x = np.linspace(-20.0, 20.0, 16384, endpoint=False)
    st = _Stepper(kg_equal(), 1e-2, x)
    u = np.outer(np.arange(1.0, 7.0), np.exp(-x ** 2) * np.cos(x / 1e-2))
    u_hat = st.spectrum(u)
    st.step(u_hat, 1e-3)
    tracemalloc.start()
    try:
        for _ in range(10):
            st.step(u_hat, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes   # 0.33 of it measured: two source rows


def test_propagator_built_by_chunks_of_modes():
    # the chunked eigendecomposition and propagator equal the one-shot ones on the
    # stored entries, the entries left out are exactly 0 there, and a rebuild
    # stays near the stored propagator's own size (it once peaked at 3.2x)
    import tracemalloc
    spec, eps = kg_equal(), 1e-2
    x = np.linspace(-20.0, 20.0, 16384, endpoint=False)
    st = _Stepper(spec, eps, x)
    assert len(st._chunks) > 1
    evals, evecs, P = _one_shot(spec, eps, x, 5e-4)
    assert np.array_equal(st.evals, evals) and len(st.evecs) == 24
    assert all(np.array_equal(entry, evecs[:, i, k]) for (i, k), entry in st.evecs.items())
    assert not np.any(evecs[:, _unstored(st.evecs, spec.N)])
    st.propagator(1e-3)
    tracemalloc.start()
    try:
        prop = st.propagator(5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(entry.nbytes for entry in prop.values())
    assert all(np.array_equal(entry, P[ij]) for ij, entry in prop.items())
    assert not np.any(P[_unstored(prop, spec.N)])


def test_kg_run_peak_memory(kg_analysis):
    # the stored entries and a datum whose complex temporaries die before the
    # stepper is built: 12.4 MiB measured, 20.3 MiB with dense (modes, 6, 6) arrays
    import tracemalloc
    tracemalloc.start()
    try:
        run_simulation(kg_equal(), 1e-2, analysis=kg_analysis, grid_points=16384, t_end=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2 ** 20


def test_final_state_is_a_copy(three_wave_analysis):
    an = three_wave_analysis()
    kw = dict(analysis=an, amplitude=AmplitudeProfile(width=2.0), grid_points=1024, t_end=0.1)
    run = run_simulation(an.spec, 1e-2, **kw)
    kept = run.final_state.copy()
    later = run_simulation(an.spec, 1e-2, **kw)
    assert np.array_equal(run.final_state, kept) and np.array_equal(later.final_state, kept)
    dx = run.config.domain_length / run.config.grid_points
    assert np.sqrt(np.sum(np.abs(kept) ** 2) * dx) == run.norm_total[-1]


def test_sweep_workers_match_serial(three_wave_analysis):
    an = three_wave_analysis()
    kw = dict(analysis=an, amplitude=AmplitudeProfile(width=2.0), grid_points=1024, t_end=0.1)
    serial = run_sweep(an.spec, [1e-2, 1e-3, 1e-4], workers=1, **kw)
    pooled = run_sweep(an.spec, [1e-2, 1e-3, 1e-4], workers=2, **kw)
    for key in ("epsilons", "t_stars", "rates", "t_star_ratios", "rate_scaled"):
        assert np.array_equal(getattr(serial, key), getattr(pooled, key)), key
    assert (serial.ratio_spread, serial.rate_spread, serial.flags) == \
        (pooled.ratio_spread, pooled.rate_spread, pooled.flags)


# ---------------------------------------------------------------------------
# recorded runs
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
SERIES = ("times", "norm_total", "norm_dev", "norm_dev_ball", "sup_dev")
STATE_STRIDE = 256


def _recorded_run(system, kg_analysis, three_wave_analysis):
    if system == "three-wave":
        an = three_wave_analysis()
        return run_simulation(an.spec, 1e-2, analysis=an, amplitude=AmplitudeProfile(width=2.0),
                              K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4, t_end=0.3)
    return run_simulation(kg_equal(), 1e-2, analysis=kg_analysis, grid_points=16384, t_end=0.05)


def run_document(run) -> dict:
    """What ``golden/<system>.run.json`` holds: the recorded series, the fit,
    and every STATE_STRIDE-th point of the final state."""
    state = run.final_state[:, ::STATE_STRIDE]
    doc = {key: getattr(run, key).tolist() for key in SERIES}
    doc.update(verdict=run.verdict, dt_used=run.dt_used, fitted_rate=run.fitted_rate,
               t_star=run.t_star if np.isfinite(run.t_star) else "inf",
               state_scale=float(np.abs(run.final_state).max()),
               state_re=state.real.tolist(), state_im=state.imag.tolist())
    return doc


@pytest.mark.parametrize("system", ["three-wave", "kg-equal"])
def test_runs_match_recorded(system, kg_analysis, three_wave_analysis):
    # series and fit to 1e-12 relative; the state to 1e-12 of its sup norm
    got = run_document(_recorded_run(system, kg_analysis, three_wave_analysis))
    want = json.loads((GOLDEN / f"{system}.run.json").read_text())
    assert sorted(got) == sorted(want)
    assert (got["verdict"], got["t_star"] == "inf") == (want["verdict"], want["t_star"] == "inf")
    for key in SERIES + ("dt_used", "fitted_rate", "state_scale") + (
            () if want["t_star"] == "inf" else ("t_star",)):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    for key in ("state_re", "state_im"):
        np.testing.assert_allclose(got[key], want[key], rtol=0,
                                   atol=1e-12 * want["state_scale"], err_msg=key)
