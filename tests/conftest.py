import numpy as np
import pytest

from oscillant import catalog
from oscillant.experiments import Analysis, analyze
from oscillant.resonance import Phase
from oscillant.system import BilinearMap, SystemSpec

_cache = {}


def _memo(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


@pytest.fixture(scope="session")
def kg_analysis() -> Analysis:
    return _memo("kg-equal", lambda: analyze(catalog.kg_equal()))


@pytest.fixture(scope="session")
def kg_d2_analysis() -> Analysis:
    return _memo("kg-equal-d2", lambda: analyze(catalog.kg_equal(d=2), grid_n=13))


@pytest.fixture(scope="session")
def kg_diff_analysis():
    def get(iota):
        return _memo(("kg-diff", iota), lambda: analyze(catalog.kg_diff(iota=iota)))
    return get


@pytest.fixture(scope="session")
def three_wave_analysis():
    def get(b=(0.0, 1.0, 1.0), c=(1.0, 0.5, -0.5)):
        key = ("three-wave", tuple(b), tuple(c))
        return _memo(key, lambda: analyze(catalog.three_wave(c=c, b=b),
                                          phase=Phase(0.0, [0.0]),
                                          window=(-8.0, 8.0), grid_n=1024))
    return get


@pytest.fixture(scope="session")
def kg_branches(kg_analysis):
    return catalog.kg_branch_map(kg_analysis.spec, kg_analysis.field)


def assert_close(a, b, tol, msg=""):
    a, b = np.asarray(a), np.asarray(b)
    err = np.max(np.abs(a - b))
    assert err <= tol, f"{msg}: |diff| = {err:.3e} > {tol:.1e}"


def random_characteristic_system(seed):
    """A random system with N in 2..4, d = 1, and a characteristic phase on one of
    its branches at a random k."""
    rng = np.random.default_rng(seed)
    N = 2 + seed % 3
    G, S = rng.normal(size=(N, N)), rng.normal(size=(N, N))
    B = BilinearMap(N, tuple((o, l, r, float(rng.normal())) for o in range(N)
                             for l in range(N) for r in range(N) if rng.random() < 0.5))
    spec = SystemSpec("random", N, 1, G - G.T, [S + S.T], B)
    k = float(rng.uniform(0.5, 1.5))
    omega = float(rng.choice(np.linalg.eigvalsh(spec.A0 / 1j + k * spec.Aj[0])))
    return spec, Phase(omega, [k]), rng
