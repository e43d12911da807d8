import numpy as np
import pytest

from oscillant.catalog import (CATALOG_IDS, build_catalog_system, kg_diff, kg_equal,
                               kg_lambda_fast, kg_lambda_slow, mll_branch_values,
                               mll_characteristic_polynomial, three_wave)
from oscillant.experiments import system_phase
from oscillant.numeric import InputError, supnorm
from oscillant.spectral import assemble_symbol

from conftest import assert_close
from oracles import kg_default_phase, kg_e1


def test_kg_equal_dimensions_and_eigenvalues():
    spec = kg_equal(omega0=1.0, theta0=0.5, d=1)
    assert spec.N == 6
    for xi in (0.3, 1.7):
        evals = np.sort(np.linalg.eigvalsh(assemble_symbol(spec, [xi])))
        lf, ls = kg_lambda_fast(spec, [xi]), kg_lambda_slow(spec, [xi])
        assert_close(evals, np.sort([lf, ls, 0.0, 0.0, -ls, -lf]), 1e-12, "spectrum")


def test_kg_equal_d2_dimensions():
    spec = kg_equal(d=2)
    assert spec.N == 8
    evals = np.sort(np.linalg.eigvalsh(assemble_symbol(spec, [0.3, 0.4])))
    lf = kg_lambda_fast(spec, [[0.3, 0.4]])
    assert_close(evals[-1], lf, 1e-12, "fast branch in 2d")


def test_kg_linearized_source_structure(kg_analysis):
    # B(e1) U = (0, i w0/w v3, 0 | 0, -u2, 0) / sqrt(2) for the equal-mass pair
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    M = spec.B.symmetrized(e1)
    w0, w = spec.params["omega0"], phase.omega
    U = np.arange(1.0, 7.0)
    out = M @ U
    expect = np.zeros(6, dtype=complex)
    expect[1] = (1j * w0 / w) * U[5] / np.sqrt(2)
    expect[4] = -U[1] / np.sqrt(2)
    assert_close(out, expect, 1e-12, "linearized source")


def test_kg_diff_gates():
    with pytest.raises(InputError):
        kg_diff(alpha0=1.0)
    with pytest.raises(InputError):
        kg_equal(theta0=1.2)
    with pytest.raises(InputError):
        kg_equal(omega0=-1.0)
    with pytest.raises(InputError):
        kg_diff(iota=2)


def test_kg_diff_wavenumber_gate():
    # the builder stores the gate |k|^2 < (alpha0^2 - 1) omega0^2 / theta0^2 = 7.56
    # as a bound on |k|, and a --k on the stored branch keeps below it
    spec = kg_diff(omega0=1.0, theta0=0.5, alpha0=1.7)
    assert spec.k_bound == pytest.approx(np.sqrt(7.56), rel=1e-15)
    assert system_phase(spec, 2.0).omega == pytest.approx(kg_default_phase(spec, 2.0).omega,
                                                          rel=1e-15)
    with pytest.raises(InputError, match="wavenumber too large"):
        system_phase(spec, 3.0)


def test_three_wave_matrices():
    spec = three_wave(c=(1.0, 0.5, -0.5), b=(0.0, 1.0, -1.0))
    np.testing.assert_allclose(spec.Aj[0], np.diag([1.0, 0.5, -0.5]))
    np.testing.assert_allclose(spec.A0, np.zeros((3, 3)))
    u = np.array([2.0, 3.0, 5.0])
    np.testing.assert_allclose(spec.B(u, u), [0.0, 2.0 * 5.0, -2.0 * 3.0])


def test_catalog_registry():
    for cid in ("three-wave", "brillouin", "kg-equal", "kg-diff"):
        spec = build_catalog_system(cid)
        assert spec.name == cid
    with pytest.raises(InputError):
        build_catalog_system("nonsense")
    with pytest.raises(InputError):
        build_catalog_system("em-dispersion")


def test_catalog_three_wave_param_overrides():
    spec = build_catalog_system("three-wave", c=(2.0, 1.0, -1.0), b=(0.0, -1.0, 1.0))
    np.testing.assert_allclose(spec.Aj[0], np.diag([2.0, 1.0, -1.0]))
    assert spec.params["b2"] == -1.0


def test_default_phases():
    # the builders store the closed-form carriers bit for bit
    for spec in (kg_equal(), kg_diff(), kg_equal(omega0=0.7, theta0=0.3, d=2)):
        want = kg_default_phase(spec)
        assert spec.phase.omega == want.omega and np.array_equal(spec.phase.k, want.k)
    assert_close(kg_equal().phase.omega, np.sqrt(2.0), 1e-14, "fast-branch frequency")
    assert_close(kg_diff().phase.omega, np.sqrt(1.25), 1e-14, "slow-branch frequency")
    for spec in (three_wave(), build_catalog_system("brillouin")):
        assert spec.phase.omega == 0.0 and spec.phase.k.tolist() == [0.0]
        assert spec.reference_direction.tolist() == [1.0, 0.0, 0.0]


def test_degeneration_consistency():
    # kg-diff with alpha0 -> 1 degenerates onto the equal-mass operator
    eq = kg_equal(omega0=1.0, theta0=0.5)
    near = kg_diff(omega0=1.0, theta0=0.5, alpha0=1.0 + 1e-11)
    for xi in (-1.3, 0.4, 2.2):
        a = np.sort(np.linalg.eigvalsh(assemble_symbol(eq, [xi])))
        b = np.sort(np.linalg.eigvalsh(assemble_symbol(near, [xi])))
        assert_close(a, b, 1e-10, "eigenvalue fields agree")


# ---------------------------------------------------------------------------
# magnetization-wave variety
# ---------------------------------------------------------------------------

def test_mll_polynomial_at_zero():
    coeffs = mll_characteristic_polynomial(0.0, 0.0)
    # lambda^9 - 4 lambda^7: roots 0 (x7) and +-2
    np.testing.assert_allclose(coeffs, [1, 0, -4, 0, 0, 0, 0, 0, 0, 0])
    roots = np.sort(np.roots(coeffs).real)
    assert_close(roots, [-2.0] + [0.0] * 7 + [2.0], 1e-8, "companion roots")


def test_mll_longitudinal_constant_term():
    # xi1 = |xi|: constant coefficient of the degree-6 factor is -|xi|^4
    s = 1.7
    coeffs = mll_characteristic_polynomial(s, s)
    assert_close(coeffs[6], -s ** 4, 1e-12, "constant term")


def test_mll_large_frequency_double_branch():
    r = 500.0
    vals = mll_branch_values(r, r)
    close_to_r = np.sum(np.abs(vals - r) < 0.01 * r)
    assert close_to_r >= 2   # two branches behave like +|xi| at infinity


def test_mll_validates_component():
    with pytest.raises(InputError):
        mll_characteristic_polynomial(2.0, 1.0)
