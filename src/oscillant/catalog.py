"""Stock systems: three-wave interaction, coupled Klein-Gordon pairs, the
magnetization-wave characteristic variety, and plasma dispersion parameters.

Each builder returns a :class:`SystemSpec` with exact matrices and its phase
entries, written by :func:`with_stock_phase` from the recorded ``params``, which
also completes a system file that has stock ``params`` but no ``phase``.  An
entry's parameters are its builder's keywords, each a command-line flag.
Closed-form branch values and the resonant sets of the Klein-Gordon systems
are provided for cross-checking the generic pipeline.
"""
from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np

from .dispersion import RELATIONS
from .interaction import polarization_vectors
from .numeric import DEFAULT_POLICY, InputError
from .spectral import AsymptoticSlopes
from .system import BilinearMap, Phase, SystemSpec


# ---------------------------------------------------------------------------
# three-wave interaction
# ---------------------------------------------------------------------------

def three_wave(c=(1.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)) -> SystemSpec:
    """Three coupled transport equations with quadratic cross term.

    du1/dt + c1 du1/dx = b1/sqrt(eps) u2 u3   (and cyclic), diagonal transport,
    no zeroth-order term.  The reference solution is (a(x - c1 t), 0, 0).
    ``c`` and ``b`` hold three values each.
    """
    c, b = tuple(float(x) for x in c), tuple(float(x) for x in b)
    if (len(c), len(b)) != (3, 3):
        raise InputError(f"--c, --b: three-wave systems take three values each, "
                         f"got {len(c)} and {len(b)}")
    A1 = np.diag(c)
    B = BilinearMap(3, ((0, 1, 2, b[0]), (1, 0, 2, b[1]), (2, 0, 1, b[2])))
    return with_stock_phase(SystemSpec("three-wave", 3, 1, np.zeros((3, 3)), (A1,), B,
                                       params={"c1": c[0], "c2": c[1], "c3": c[2],
                                               "b1": b[0], "b2": b[1], "b3": b[2]}))


def brillouin(c=(1.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)) -> SystemSpec:
    """Singularly scaled three-wave system, reduced to the standard scaling.

    The substitution u = (sqrt(eps) v1, sqrt(eps) v2, v3)(t/sqrt(eps), sqrt(eps) x)
    maps the singular system onto :func:`three_wave`; the returned spec is the
    reduced system with the scaling recorded in params (times recorded by a
    sweep must be multiplied by sqrt(eps), lengths by 1/sqrt(eps)).
    """
    spec = three_wave(c, b)
    params = dict(spec.params)
    # amplification time scales as eps^1 |log eps| (an extra sqrt(eps) against
    # the standard scaling); lengths dilate by eps^(-1/2)
    params.update({"scaling": "brillouin", "time_factor_power": 1.0, "space_factor_power": -0.5})
    return replace(spec, name="brillouin", params=params)


# ---------------------------------------------------------------------------
# coupled Klein-Gordon systems
# ---------------------------------------------------------------------------

def _kg_blocks(d, speed, mass):
    """One Klein-Gordon block: transport matrices and the rotation term.

    Block layout: (u1 in R^d, u2, u3); transport couples u1_j <-> u2 with
    speed, the rotation couples u2 <-> u3 with frequency `mass`.
    """
    n = d + 2
    Aj = []
    for j in range(d):
        a = np.zeros((n, n))
        a[j, d] = a[d, j] = -speed
        Aj.append(a)
    L = np.zeros((n, n))
    L[d, d + 1] = mass
    L[d + 1, d] = -mass
    return Aj, L


def _block_diag(a, b):
    """The block-diagonal matrix diag(a, b)."""
    out = np.zeros((len(a) + len(b),) * 2)
    out[:len(a), :len(a)], out[len(a):, len(a):] = a, b
    return out


def _kg_pair(d, theta0, mass_u, mass_v):
    """Blocks u (speed 1) and v (speed theta0) side by side: N, A0, the
    transport matrices and the indices of u2, u3, v2, v3."""
    if d not in (1, 2):   # checked before B's triplets index the blocks
        raise InputError(f"--d {d}: spatial dimension must be 1 or 2")
    (Au, Lu), (Av, Lv) = _kg_blocks(d, 1.0, mass_u), _kg_blocks(d, theta0, mass_v)
    n = d + 2
    return (2 * n, _block_diag(Lu, Lv), tuple(_block_diag(a, b) for a, b in zip(Au, Av)),
            (d, d + 1, n + d, n + d + 1))


def kg_equal(omega0=1.0, theta0=0.5, d=1) -> SystemSpec:
    """Two coupled Klein-Gordon blocks with equal masses, different speeds (1 and theta0)."""
    if not (0 < theta0 < 1):
        raise InputError("theta0 must lie in (0, 1)")
    if omega0 <= 0:
        raise InputError("omega0 must be positive")
    N, A0, Aj, (iu2, iu3, iv2, iv3) = _kg_pair(d, theta0, omega0, omega0)
    B = BilinearMap(N, (
        (iu2, iu3, iv3, 0.5), (iu2, iv3, iu3, 0.5), (iu2, iv3, iv3, 0.5),
        (iv2, iu2, iu2, -0.5), (iv2, iv2, iv3, 0.5), (iv2, iv3, iv2, 0.5),
    ))
    return with_stock_phase(SystemSpec("kg-equal", N, d, A0, Aj, B,
                                       params={"omega0": float(omega0), "theta0": float(theta0)}))


def kg_diff(omega0=1.0, theta0=0.5, alpha0=1.7, iota=1, d=1) -> SystemSpec:
    """Two coupled Klein-Gordon blocks with different masses (alpha0 > 1) and speeds."""
    if not (0 < theta0 < 1):
        raise InputError("theta0 must lie in (0, 1)")
    if omega0 <= 0:
        raise InputError("omega0 must be positive")
    if not alpha0 > 1:
        raise InputError("alpha0 must exceed 1 (different masses)")
    if iota not in (-1, 1):
        raise InputError("iota must be +1 or -1")
    N, A0, Aj, (iu2, iu3, iv2, iv3) = _kg_pair(d, theta0, alpha0 * omega0, omega0)
    B = BilinearMap(N, (
        (iu2, iu3, iv3, 0.5), (iu2, iv3, iu3, 0.5), (iu2, iv3, iv3, 0.5),
        (iv2, iu2, iu2, -iota / 2), (iv2, iu2, iv2, -iota / 2), (iv2, iv2, iu2, -iota / 2),
    ))
    return with_stock_phase(SystemSpec("kg-diff", N, d, A0, Aj, B,
                                       params={"omega0": float(omega0), "theta0": float(theta0),
                                               "alpha0": float(alpha0), "iota": int(iota)}))


# -- closed forms -----------------------------------------------------------

def kg_lambda_fast(spec, xi):
    """Fast branch value sqrt((alpha0 omega0)^2 + |xi|^2)."""
    w0 = spec.params["omega0"]
    a0 = spec.params.get("alpha0", 1.0)
    xi = np.asarray(xi, dtype=float)
    return np.sqrt((a0 * w0) ** 2 + np.sum(np.atleast_2d(xi) ** 2, axis=-1).squeeze())


def kg_lambda_slow(spec, xi):
    """Slow branch value sqrt(omega0^2 + theta0^2 |xi|^2)."""
    w0, th0 = spec.params["omega0"], spec.params["theta0"]
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(w0 ** 2 + th0 ** 2 * np.sum(np.atleast_2d(xi) ** 2, axis=-1).squeeze())


def kg_r15_roots(phase: Phase):
    """{xi : |xi + k| = |k|} in 1-d: {0, -2k}."""
    k = float(phase.k[0])
    return sorted([0.0, -2.0 * k])


def kg_r54_roots(phase: Phase):
    """{xi : |xi| = |k|} in 1-d: {-k, +k}."""
    k = float(phase.k[0])
    return sorted([-abs(k), abs(k)])


def kg_branch_map(spec, field):
    """Map text branch labels 1..5 (fast+, slow+, slow-, fast-, null) to field
    branch indices, by matching closed-form values at a probe frequency."""
    probe = np.full(spec.d, 1.3)
    lams = field.evaluate(probe[None]).lams[0]
    lf = float(kg_lambda_fast(spec, probe))
    ls = float(kg_lambda_slow(spec, probe))
    targets = {1: lf, 2: ls, 3: -ls, 4: -lf, 5: 0.0}
    out = {}
    for label, val in targets.items():
        j = int(np.argmin(np.abs(lams - val)))
        if abs(lams[j] - val) > 1e-8 * (1 + abs(val)):
            raise InputError("field branches do not match Klein-Gordon closed forms")
        out[label] = j
    return out


# ---------------------------------------------------------------------------
# magnetization-wave variety (negative control for boundedness)
# ---------------------------------------------------------------------------

MLL_POLYNOMIAL = ("lambda^3 (lambda^6 - 2(2+|xi|^2) lambda^4 + (|xi|^2(6+|xi|^2) - 2 xi1^2) "
                  "lambda^2 - |xi|^2(2|xi|^2 - xi1^2))")


def mll_characteristic_polynomial(xi1, xinorm):
    """Degree-9 characteristic polynomial coefficients (highest power first)
    of the linearized magnetization-wave system, :data:`MLL_POLYNOMIAL` as a
    polynomial in lambda."""
    if abs(xi1) > abs(xinorm) + 1e-14:
        raise InputError("|xi| must be at least |xi1|")
    s = xinorm ** 2
    c4 = -2.0 * (2.0 + s)
    c2 = s * (6.0 + s) - 2.0 * xi1 ** 2
    c0 = -s * (2.0 * s - xi1 ** 2)
    # lambda^9 + c4 lambda^7 + c2 lambda^5 + c0 lambda^3
    return np.array([1.0, 0.0, c4, 0.0, c2, 0.0, c0, 0.0, 0.0, 0.0])


def mll_branch_values(xi1, xinorm):
    """All nine branch values at (xi1, |xi|), via companion-matrix roots, sorted."""
    r = np.roots(mll_characteristic_polynomial(xi1, xinorm))
    return np.sort(r.real)


def mll_asymptotic_slopes(cos_angle=1.0, radii=(200.0, 400.0)) -> AsymptoticSlopes:
    """Branch slopes at infinity along a direction with xi1 = cos_angle * |xi|, read
    from the sorted branch values at ``radii``."""
    return AsymptoticSlopes(radii, np.array([mll_branch_values(cos_angle * r, r) for r in radii]))


def mll_boundedness_verdict():
    """Boundedness verdict for the magnetization-wave resonant set.

    The asymptotic branches are not distinct (two branches share each slope
    +-1, and several vanish), so the distinct-slope criterion cannot certify a
    bounded resonant set: the verdict is 'undetermined', never 'bounded'.
    Slopes coincide under the default policy: the variety is given by
    closed-form branches, not by a :class:`SystemSpec` carrying a policy.
    """
    for cosa in (1.0, 0.7, 0.0):
        if mll_asymptotic_slopes(cosa).coinciding_pairs(DEFAULT_POLICY):
            return "undetermined"
    return "bounded"  # pragma: no cover - never reached for this variety


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "three-wave": three_wave,
    "brillouin": brillouin,
    "kg-equal": kg_equal,
    "kg-diff": kg_diff,
}

# dispersion-only entries: no system matrices, the document ``catalog emit`` writes
_DOCUMENTS = {
    "mll-variety": lambda: {"polynomial": MLL_POLYNOMIAL,
                            "boundedness_verdict": mll_boundedness_verdict()},
    "em-dispersion": lambda: {"relations": list(RELATIONS),
                              "params": {"theta_e": 0.1, "theta_i": 0.001, "alpha": 0.5}},
}

CATALOG_IDS = (*_BUILDERS, *_DOCUMENTS)


def catalog_entry(entry_id: str, **params):
    """Catalog entry ``entry_id`` built with ``params``, keywords its builder declares:
    a :class:`SystemSpec`, or the document of a dispersion-only entry, which declares
    none.  Any other parameter is refused, named with the entry's own."""
    make = _BUILDERS.get(entry_id) or _DOCUMENTS.get(entry_id)
    if make is None:
        raise InputError(f"unknown catalog id '{entry_id}' (known: {', '.join(CATALOG_IDS)})")
    own = [f"--{key}" for key in inspect.signature(make).parameters]
    refused = [f"--{key}" for key in params if f"--{key}" not in own]
    if refused:
        raise InputError(f"{', '.join(refused)}: catalog entry '{entry_id}' takes "
                         + (", ".join(own) + " only" if own else "no parameters"))
    return make(**params)


def build_catalog_system(entry_id: str, **params) -> SystemSpec:
    """The system of catalog entry ``entry_id``, built as :func:`catalog_entry` builds it."""
    entry = catalog_entry(entry_id, **params)
    if not isinstance(entry, SystemSpec):
        raise InputError(f"catalog entry '{entry_id}' is dispersion-only and has no system matrices")
    return entry


def with_stock_phase(spec: SystemSpec) -> SystemSpec:
    """``spec`` with the phase entries its stock ``params`` give, as the builders
    write them and a system file without a ``phase`` gets them on load: ``c1``
    (three-wave) gives (0, 0), a full kernel, and the direction of the reference
    solution (a(x - c1 t), 0, 0); ``omega0`` and ``theta0`` (Klein-Gordon) give
    k = (1, 0, ..) on the fast branch, or for ``alpha0 > 1`` on the slow branch
    under the gate |k|^2 < (alpha0^2 - 1) omega0^2 / theta0^2."""
    p, k = spec.params, np.zeros(spec.d)
    if "c1" in p:
        return replace(spec, phase=Phase(0.0, k), reference_direction=np.eye(spec.N)[0])
    if "omega0" not in p or "theta0" not in p:
        return spec
    w0, th0, a0 = p["omega0"], p["theta0"], p.get("alpha0", 1.0)
    k[0] = 1.0
    try:
        if a0 > 1:
            return replace(spec, phase=Phase(np.sqrt(w0 ** 2 + th0 ** 2), k),
                           k_bound=float(np.sqrt((a0 ** 2 - 1) * w0 ** 2 / th0 ** 2)))
        return replace(spec, phase=Phase(np.sqrt(w0 ** 2 + 1.0), k))
    except (OverflowError, ZeroDivisionError):
        named = ", ".join(f"--{key} {p[key]:g}" for key in ("omega0", "theta0", "alpha0") if key in p)
        raise InputError(f"{named}: the stock phase squares them, and a square overflows "
                         "or vanishes") from None


def reference_polarization(spec: SystemSpec, phase: Phase) -> np.ndarray:
    """The polarization e1 the analysis takes (kept for the benchmark's callers)."""
    return polarization_vectors(spec, phase).e1
