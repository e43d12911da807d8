"""The system carries its tolerances: every layer decides by ``spec.policy``."""
from dataclasses import replace

import numpy as np
import pytest

from oscillant import catalog
from oscillant.numeric import InputError, NumericPolicy
from oscillant.resonance import default_window, find_resonances
from oscillant.spectral import asymptotic_slopes, eigendecompose_field, uniform_grid
from oscillant.system import BilinearMap, SystemSpec
from oscillant.wkb import consistency_residual, solve_transport, weak_transparency_check

from oracles import kg_e1


def _harmonics(spec, phase, grid_n=257):
    window = default_window(spec, phase)
    pad = float(np.max(np.abs(phase.k))) + 1e-9
    field = eigendecompose_field(spec, uniform_grid((window[0][0] - pad, window[0][1] + pad),
                                                    grid_n))
    return find_resonances(field, phase, window=window).harmonics_set


def test_char_tol_of_the_system_decides_the_harmonics():
    # a kernel tolerance of 10 makes every harmonic characteristic; the cascade
    # assumptions then fail, and the stock policy keeps (-1, 0, 1)
    spec = catalog.kg_equal()
    phase = spec.phase
    loose = replace(spec, policy=NumericPolicy(char_tol=10.0))
    assert _harmonics(loose, phase) == tuple(range(-4, 5))
    with pytest.raises(InputError, match="characteristic harmonics"):
        weak_transparency_check(loose, phase)
    assert _harmonics(spec, phase) == (-1, 0, 1)
    assert weak_transparency_check(spec, phase).passed


def _accepts_asymmetric_a1(policy):
    # A1 of kg-equal made asymmetric by 1e-11
    spec = catalog.kg_equal()
    a1 = spec.Aj[0].copy()
    a1[0, 1] += 1e-11
    try:
        SystemSpec(spec.name, spec.N, spec.d, spec.A0, (a1,), spec.B, policy=policy)
    except InputError:
        return False
    return True


def _weakly_transparent(policy):
    spec = catalog.kg_equal()
    fed = replace(spec, B=BilinearMap(spec.N, spec.B.triplets + ((0, 1, 1, 0.1),)),
                  policy=policy)
    return weak_transparency_check(fed, spec.phase).passed


def _residual_exact(policy):
    # residuals all below the floor: an exact solution, of order inf
    spec = catalog.kg_equal()
    phase = spec.phase
    e1 = kg_e1(spec, phase)

    def make(eps):
        x = np.linspace(-12, 12, 2048, endpoint=False)
        return solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=0.1, n_steps=4)
    fit = consistency_residual(make, replace(spec, policy=policy), [1e-1, 5e-2])
    return fit.fitted_order == np.inf


def _slope_branches(policy):
    spec = replace(catalog.kg_equal(), policy=policy)
    return len(asymptotic_slopes(eigendecompose_field(spec, (np.array([200.0]),)), [1.0],
                                 [200.0, 400.0]).c)


@pytest.mark.parametrize("decide, changed, default_decision, changed_decision", [
    (_accepts_asymmetric_a1, {"sym_tol": 1e-10}, False, True),
    (_weakly_transparent, {"algebra_tol": 10.0}, False, True),
    (_residual_exact, {"residual_floor": 1e10}, False, True),
    (_slope_branches, {"degenerate_tol": 1e-20}, 5, 6),
], ids=["system-sym_tol", "wkb-algebra_tol", "residual-residual_floor", "slopes-degenerate_tol"])
def test_one_policy_field_flips_one_layer(decide, changed, default_decision, changed_decision):
    assert decide(NumericPolicy()) == default_decision
    assert decide(NumericPolicy(**changed)) == changed_decision
