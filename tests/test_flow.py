import numpy as np
import pytest
from scipy.optimize import brentq, linear_sum_assignment

from oscillant.flow import (InteractionMatrix, bump_weight, flow_spectrum, integrate_flow,
                            unstable_datum_direction, verify_growth_bound)
from oscillant.interaction import pair_coefficients_at
from oscillant.numeric import InputError, NumericalError

from conftest import assert_close


def spectrum_match_error(a, b):
    C = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(C)
    return float(C[r, c].max())


def _rank_one(rng, N):
    return np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                    rng.normal(size=N) + 1j * rng.normal(size=N))


def test_flow_spectrum_trivial_cases():
    m = InteractionMatrix(mu1=0.0, mu2=0.0, b12=np.eye(1), b21=np.eye(1), epsilon=1.0)
    assert_close(sorted(flow_spectrum(m).real), [-1.0, 1.0], 1e-14, "pure coupling")
    z = np.zeros((1, 1))
    m = InteractionMatrix(mu1=0.0, mu2=2.0, b12=z, b21=z, epsilon=1.0)
    vals = flow_spectrum(m)
    assert spectrum_match_error(vals, [0.0, 2.0j]) < 1e-14


def test_flow_spectrum_multiplicities():
    rng = np.random.default_rng(5)
    N = 4
    m = InteractionMatrix(mu1=0.7, mu2=-0.2, b12=_rank_one(rng, N), b21=_rank_one(rng, N),
                          epsilon=1e-2)
    vals = flow_spectrum(m)
    assert len(vals) == 2 * N
    assert np.sum(np.abs(vals - 1j * 0.7) < 1e-12) >= N - 1
    assert np.sum(np.abs(vals + 1j * 0.2) < 1e-12) >= N - 1


def test_flow_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(42)
    count = 0
    while count < 250:
        N = int(rng.integers(1, 5))
        mu1, mu2 = rng.normal(size=2) * 3
        eps = 10 ** rng.uniform(-4, 0)
        m = InteractionMatrix(mu1=mu1, mu2=mu2, b12=_rank_one(rng, N),
                              b21=_rank_one(rng, N), epsilon=eps)
        scale = max(1.0, abs(mu1), abs(mu2), np.abs(m.b12).max(), np.abs(m.b21).max())
        disc = abs(4 * eps * np.trace(m.b12 @ m.b21) - (mu1 - mu2) ** 2)
        if disc < 1e-4 * scale ** 2:
            continue
        count += 1
        err = spectrum_match_error(flow_spectrum(m), np.linalg.eigvals(m.block()))
        assert err <= 1e-10 * scale


def test_flow_spectrum_rank_error():
    rng = np.random.default_rng(1)
    m = InteractionMatrix(mu1=0.0, mu2=0.0, b12=rng.normal(size=(3, 3)),
                          b21=rng.normal(size=(3, 3)), epsilon=1.0)
    with pytest.raises(NumericalError):
        flow_spectrum(m)


def test_growth_boundary_located_exactly():
    eps, tr = 1e-3, 2.3
    b = np.array([[np.sqrt(tr)]])

    def re_mu_plus(delta):
        m = InteractionMatrix(mu1=delta / 2, mu2=-delta / 2, b12=b, b21=b, epsilon=eps)
        return float(np.max(flow_spectrum(m).real))

    d_star = np.sqrt(4 * eps * tr)
    located = brentq(lambda d: re_mu_plus(d) - 1e-300, 0.5 * d_star, 1.5 * d_star, xtol=1e-15)
    assert abs(located - d_star) <= 1e-12
    assert re_mu_plus(d_star * (1 + 1e-9)) == 0.0
    assert re_mu_plus(d_star * (1 - 1e-9)) > 0.0


def test_integrate_unitary_when_decoupled():
    z = np.zeros((2, 2))
    m = InteractionMatrix(mu1=0.4, mu2=-0.9, b12=z, b21=z, epsilon=1e-2,
                          extra_diag=(1.5, -2.0))
    traj = integrate_flow(lambda t: m, 0.0, 4.0, dt=0.002)
    assert np.abs(traj.sup_norm_series - 1.0).max() <= 1e-10


def test_integrate_resonant_growth_rate():
    # coalescing detuning: growth at Re sqrt(tr b12 b21) within 5 percent
    eps = 1e-3
    b = np.array([[1.0]])
    m = InteractionMatrix(mu1=0.5, mu2=0.5, b12=b, b21=b, epsilon=eps)
    traj = integrate_flow(lambda t: m, 0.0, 2 * abs(np.log(eps)), dt=0.005)
    assert abs(traj.fitted_rate - 1.0) <= 0.05
    assert traj.liouville_defect <= 1e-6


def test_integrate_away_from_resonance_bounded():
    eps = 1e-3
    b = np.array([[1.0]])
    m = InteractionMatrix(mu1=1.0, mu2=-1.0, b12=b, b21=b, epsilon=eps)
    traj = integrate_flow(lambda t: m, 0.0, 2 * abs(np.log(eps)), dt=0.001)
    assert traj.sup_norm_series.max() <= 10.0


def test_integrate_group_property():
    b = np.array([[0.4]])
    m = InteractionMatrix(mu1=0.3, mu2=0.1, b12=b, b21=0.5 * b, epsilon=1e-2)
    a = integrate_flow(lambda t: m, 0.0, 1.0, dt=0.004, samples=4)
    full = integrate_flow(lambda t: m, 0.0, 2.0, dt=0.004, samples=4)
    assert np.abs(a.S[-1] @ a.S[-1] - full.S[-1]).max() <= 1e-8


def test_integrate_liouville_nonautonomous():
    b = np.array([[1.0]])

    def m_of_t(t):
        g = np.exp(-0.1 * t)
        return InteractionMatrix(mu1=0.2, mu2=0.2, b12=g * b, b21=g * b, epsilon=1e-2)

    traj = integrate_flow(m_of_t, 0.0, 3.0, dt=0.002)
    assert traj.liouville_defect <= 1e-6


def test_integrate_step_size_refused():
    b = np.array([[1.0]])
    m = InteractionMatrix(mu1=5.0, mu2=-5.0, b12=b, b21=b, epsilon=1e-4)
    with pytest.raises(InputError):
        integrate_flow(lambda t: m, 0.0, 1.0, dt=0.5)


def test_three_wave_frozen_rate():
    # frozen-coefficient growth sqrt(b2 b3) |a| for the coupled pair
    eps = 1e-3
    b2, b3, a = 1.0, 1.0, 0.8
    m = InteractionMatrix(mu1=0.0, mu2=0.0, b12=np.array([[b2 * a]]),
                          b21=np.array([[b3 * a]]), epsilon=eps)
    traj = integrate_flow(lambda t: m, 0.0, 1.5 * abs(np.log(eps)), dt=0.005)
    assert abs(traj.fitted_rate - np.sqrt(b2 * b3) * a) <= 0.05 * a


def test_verify_growth_bound_trivial_zero_coupling():
    z = np.zeros((1, 1))

    def factory(eps, t_end):
        m = InteractionMatrix(mu1=0.3, mu2=-0.3, b12=z, b21=z, epsilon=eps)
        return [integrate_flow(lambda t: m, 0.0, t_end, dt=0.01, samples=20)]

    rep = verify_growth_bound(factory, gamma_plus=0.0, T=1.0, epsilons=[1e-2, 1e-3])
    assert rep.passed
    assert np.all(np.abs(rep.Q - 1.0) <= 1e-10)


def test_unstable_datum_direction_trivial():
    v = np.array([3.0, 4.0, 0.0]) / 5.0
    e0 = unstable_datum_direction(2.0 * np.outer(v, v))
    assert_close(np.abs(np.vdot(e0, v)), 1.0, 1e-12, "returns the generator")
    assert e0[0].real > 0


def test_unstable_datum_direction_zero_matrix():
    with pytest.raises(NumericalError):
        unstable_datum_direction(np.zeros((3, 3)))


def test_unstable_datum_direction_three_wave(three_wave_analysis):
    # seeding the (slow-minus, slow-plus) ordering amplifies the third component
    an = three_wave_analysis()
    from oscillant.catalog import three_wave_branch_map
    bm = three_wave_branch_map(an.spec, an.field)
    bp, bmn, g = pair_coefficients_at(an.field, an.pol, an.phase, (bm[3], bm[2]), [0.0])
    e0 = unstable_datum_direction(bp @ bmn)
    assert_close(np.abs(e0), [0.0, 0.0, 1.0], 1e-12, "third mode direction")
    # and the mirror ordering amplifies the second component
    bp, bmn, g = pair_coefficients_at(an.field, an.pol, an.phase, (bm[2], bm[3]), [0.0])
    e0 = unstable_datum_direction(bp @ bmn)
    assert_close(np.abs(e0), [0.0, 1.0, 0.0], 1e-12, "second mode direction")


def test_unstable_datum_direction_kg_root(kg_analysis, kg_branches):
    from oscillant.catalog import kg_omega_vec
    sr = kg_analysis.stability
    bp, bm, g = pair_coefficients_at(kg_analysis.field, kg_analysis.pol, kg_analysis.phase,
                                     sr.selected_pair, sr.xi0)
    e0 = unstable_datum_direction(bp @ bm)
    om1 = kg_omega_vec(kg_analysis.spec, np.atleast_1d(sr.xi0) + kg_analysis.phase.k, "fast+")
    om1 = om1 / np.linalg.norm(om1)
    assert_close(abs(np.vdot(e0, om1)), 1.0, 1e-8, "spans the fast range")


def test_bump_weight_profile():
    assert bump_weight(0.0, 1.0, 2.0) == 1.0
    assert bump_weight(0.9, 1.0, 2.0) == 1.0
    assert bump_weight(2.1, 1.0, 2.0) == 0.0
    mid = bump_weight(1.5, 1.0, 2.0)
    assert 0.0 < mid < 1.0


def test_kg_flow_bound_family(kg_analysis):
    from oscillant.experiments import flow_bound_experiment
    rep = flow_bound_experiment(kg_analysis, [1e-2, 1e-3], T=1.5, h=0.1)
    assert rep.passed
    assert rep.fitted_exponent <= 8.0
    assert rep.away_sup <= 10.0


def test_flow_sampler_evaluates_each_frequency_once(kg_analysis, monkeypatch):
    # one group velocity per experiment, one pair evaluation per frequency sample
    from oscillant import experiments
    calls = {"transport_setup": 0, "_pair_sample": 0}
    for name in calls:
        def counted(*args, _f=getattr(experiments, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(experiments, name, counted)
    rep = experiments.flow_bound_experiment(kg_analysis, [1e-2, 1e-3], T=0.5, h=0.1,
                                            n_x=3, n_xi=3, away_offsets=(0.4, 0.6))
    assert rep.away_sup is not None
    assert calls == {"transport_setup": 1, "_pair_sample": 3 + 2}
