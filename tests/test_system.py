import numpy as np
import pytest

from oscillant.catalog import kg_diff, kg_equal, three_wave
from oscillant.numeric import InputError
from oscillant.system import (BilinearMap, Phase, SystemSpec, load_spec, save_spec, spec_from_dict,
                              spec_to_dict)


def test_skew_symmetry_enforced():
    with pytest.raises(InputError):
        SystemSpec("bad", 2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]),
                   (np.eye(2),), BilinearMap(2, ()))


def test_transport_symmetry_enforced():
    with pytest.raises(InputError):
        SystemSpec("bad", 2, 1, np.zeros((2, 2)),
                   (np.array([[0.0, 1.0], [-1.0, 0.0]]),), BilinearMap(2, ()))


def test_triplet_index_range():
    with pytest.raises(InputError):
        BilinearMap(2, ((0, 0, 2, 1.0),))


@pytest.mark.parametrize("value", [1j, 0.5 + 0.5j, complex(1.0, 0.0), np.complex128(2.0)])
def test_non_real_triplet_value_refused(value):
    with pytest.raises(InputError, match=r"B triplet \(0, 1, 1\) has a non-real value"):
        BilinearMap(2, ((1, 0, 0, 1.0), (0, 1, 1, value)))


@pytest.mark.parametrize("shape", [(4, 33), (4,)])
@pytest.mark.parametrize("kinds", [(False, False), (True, True), (False, True), (True, False)])
def test_bilinear_eval_bit_identical_to_triplet_products(kinds, shape):
    rng = np.random.default_rng(7)

    def draw(is_complex):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if is_complex else x

    u, v = draw(kinds[0]), draw(kinds[1])
    B = BilinearMap(4, ((0, 1, 2, 0.3), (0, 2, 1, -1.7), (3, 3, 3, 1e-3), (1, 0, 0, 0.0),
                        (3, 0, 2, 2.5), (0, 1, 2, -0.3)))
    ref = np.zeros(shape, dtype=np.result_type(u, v))
    for (o, l, r, val) in B.triplets:
        if val != 0:
            ref[o] += val * u[l] * v[r]
    out = B(u, v)
    assert out.dtype == ref.dtype and np.array_equal(out, ref)
    # into a given array only the written rows 0 and 3: rows 1 and 2 keep their nan
    into = np.full(shape, np.nan, dtype=ref.dtype)
    assert B(u, v, out=into) is into and B.rows == (0, 3)
    assert np.array_equal(into[[0, 3]], ref[[0, 3]]) and np.all(np.isnan(into[[1, 2]]))


@pytest.mark.parametrize("system", [kg_equal, three_wave])
def test_bilinear_writes_only_its_rows(system):
    # the rows a nonzero triplet writes: 1 and 4 of 6 on Klein-Gordon, 1 and 2 of 3 on
    # three-wave; into a nan-filled out the others stay nan, the written ones are B(u, v)
    B = system().B
    rows = {6: (1, 4), 3: (1, 2)}[B.N]
    u, v = np.random.default_rng(3).normal(size=(2, B.N, 17))
    out = np.full((B.N, 17), np.nan)
    B(u, v, out=out)
    others = [i for i in range(B.N) if i not in rows]
    assert B.rows == rows and np.all(np.isnan(out[others]))
    assert np.array_equal(out[list(rows)], B(u, v)[list(rows)])
    assert np.all(B(u, v)[others] == 0)


def test_bilinear_eval_and_symmetrized():
    B = BilinearMap(3, ((0, 1, 2, 2.0), (2, 0, 0, -1.0)))
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([0.5, -1.0, 4.0])
    out = B(u, v)
    assert out[0] == 2.0 * u[1] * v[2]
    assert out[2] == -1.0 * u[0] * v[0]
    M = B.symmetrized(u)
    w = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(M @ w, B(u, w) + B(w, u), atol=1e-14)


def test_scaled_bilinear():
    B = three_wave().B
    u = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(B.scaled(2.5)(u, u), 2.5 * B(u, u))


def test_roundtrip_bit_identical(tmp_path):
    spec = kg_equal(omega0=np.pi / 3, theta0=0.123456789012345)
    path = tmp_path / "sys.json"
    save_spec(spec, str(path))
    back = load_spec(str(path))
    assert back.name == spec.name and back.N == spec.N and back.d == spec.d
    assert np.array_equal(back.A0, spec.A0)
    for a, b in zip(back.Aj, spec.Aj):
        assert np.array_equal(a, b)
    assert back.B.triplets == spec.B.triplets
    assert back.params["theta0"] == spec.params["theta0"]
    # a second emit is byte-identical
    path2 = tmp_path / "sys2.json"
    save_spec(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_dict_roundtrip_preserves_awkward_floats():
    spec = three_wave(c=(1 / 3, np.nextafter(0.5, 1.0), -0.5), b=(0.1, 1e-17, 2.0))
    back = spec_from_dict(spec_to_dict(spec))
    for a, b in zip(back.Aj, spec.Aj):
        assert np.array_equal(a, b)
    assert back.B.triplets == spec.B.triplets


def test_phase_entries_round_trip():
    # the phase, its |k| bound and the reference direction are part of the file
    for spec in (kg_diff(), three_wave(), kg_equal(d=2)):
        doc = spec_to_dict(spec)
        back = spec_from_dict(doc)
        assert back.phase.omega == spec.phase.omega
        assert np.array_equal(back.phase.k, spec.phase.k) and back.k_bound == spec.k_bound
        assert (back.reference_direction is None) == (spec.reference_direction is None)
        assert spec_to_dict(back) == doc
    assert "k_bound" not in spec_to_dict(kg_equal())["phase"]
    assert "reference_direction" not in spec_to_dict(kg_equal())


@pytest.mark.parametrize("entries, problem", [
    ({"phase": Phase(1.0, [1.0, 0.0])}, "wavenumber of dimension 1"),
    ({"phase": Phase(np.nan, [1.0])}, "phase must be finite"),
    ({"reference_direction": [1.0, 0.0]}, "finite nonzero real 3-vector"),
    ({"reference_direction": [0.0, 0.0, 0.0]}, "finite nonzero real 3-vector"),
    ({"reference_direction": [1j, 0.0, 0.0]}, "finite nonzero real 3-vector"),
], ids=["k-dimension", "omega-nan", "direction-length", "direction-zero", "direction-complex"])
def test_phase_entries_validated(entries, problem):
    spec = three_wave()
    with pytest.raises(InputError, match=problem):
        SystemSpec(spec.name, spec.N, spec.d, spec.A0, spec.Aj, spec.B, **entries)
