"""Stock systems: three-wave interaction, coupled Klein-Gordon pairs, the
magnetization-wave characteristic variety, and plasma dispersion parameters.

Each builder returns a :class:`SystemSpec` with exact matrices; closed-form
eigenvalues, polarization vectors and coupling scalars for the Klein-Gordon
systems are provided for cross-checking the generic pipeline.
"""
from __future__ import annotations

import numpy as np

from .numeric import DEFAULT_POLICY, InputError
from .resonance import Phase
from .system import BilinearMap, SystemSpec


# ---------------------------------------------------------------------------
# three-wave interaction
# ---------------------------------------------------------------------------

def three_wave(c=(1.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)) -> SystemSpec:
    """Three coupled transport equations with quadratic cross term.

    du1/dt + c1 du1/dx = b1/sqrt(eps) u2 u3   (and cyclic), diagonal transport,
    no zeroth-order term.  The reference solution is (a(x - c1 t), 0, 0).
    """
    c = tuple(float(x) for x in c)
    b = tuple(float(x) for x in b)
    A1 = np.diag(c)
    B = BilinearMap(3, ((0, 1, 2, b[0]), (1, 0, 2, b[1]), (2, 0, 1, b[2])))
    return SystemSpec("three-wave", 3, 1, np.zeros((3, 3)), (A1,), B,
                      params={"c1": c[0], "c2": c[1], "c3": c[2],
                              "b1": b[0], "b2": b[1], "b3": b[2]})


def three_wave_reference_direction() -> np.ndarray:
    """Polarization of the non-oscillating reference solution (kernel direction
    supplied directly: the phase (0, 0) has a full kernel)."""
    return np.array([1.0, 0.0, 0.0])


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
    return SystemSpec("brillouin", 3, 1, spec.A0, spec.Aj, spec.B, params=params)


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
    return SystemSpec("kg-equal", N, d, A0, Aj, B,
                      params={"omega0": float(omega0), "theta0": float(theta0)})


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
    return SystemSpec("kg-diff", N, d, A0, Aj, B,
                      params={"omega0": float(omega0), "theta0": float(theta0),
                              "alpha0": float(alpha0), "iota": int(iota)})


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


def kg_default_phase(spec, k=1.0) -> Phase:
    """Characteristic phase carried by the initial oscillation.

    Equal masses: on the fast branch.  Different masses: on the slow branch,
    with the wavenumber gate |k|^2 < (alpha0^2 - 1) omega0^2 / theta0^2.
    """
    w0, th0 = spec.params["omega0"], spec.params["theta0"]
    kvec = np.full(spec.d, 0.0)
    kvec[0] = k
    knorm2 = float(np.sum(kvec ** 2))
    a0 = spec.params.get("alpha0", 1.0)
    if a0 > 1:
        if not knorm2 < (a0 ** 2 - 1) * w0 ** 2 / th0 ** 2:
            raise InputError("wavenumber too large: |k|^2 must be below (alpha0^2-1) omega0^2/theta0^2")
        omega = float(np.sqrt(w0 ** 2 + th0 ** 2 * knorm2))
    else:
        omega = float(np.sqrt(w0 ** 2 + knorm2))
    return Phase(omega, kvec)


def kg_e1(spec, phase: Phase) -> np.ndarray:
    """Unit polarization vector of the fundamental phase (closed form)."""
    d, n = spec.d, spec.d + 2
    w0 = spec.params["omega0"]
    w = phase.omega
    e = np.zeros(spec.N, dtype=complex)
    if spec.params.get("alpha0", 1.0) > 1:
        # slow-branch phase lives in the second block
        e[n:n + d] = -spec.params["theta0"] * phase.k / w
        e[n + d] = 1.0
        e[n + d + 1] = 1j * w0 / w
    else:
        e[:d] = -phase.k / w
        e[d] = 1.0
        e[d + 1] = 1j * w0 / w
    return e / np.sqrt(2.0)


def kg_omega_vec(spec, xi, branch) -> np.ndarray:
    """Eigenvector of branch 'fast+'/'slow+'/'slow-'/'fast-' at xi, in the text's
    normalization: fast vectors are unit (carry 1/sqrt(2)), slow vectors are not."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d, n = spec.d, spec.d + 2
    w0, th0 = spec.params["omega0"], spec.params["theta0"]
    a0 = spec.params.get("alpha0", 1.0)
    out = np.zeros(spec.N, dtype=complex)
    if branch in ("fast+", "fast-"):
        lam = kg_lambda_fast(spec, xi) * (1 if branch == "fast+" else -1)
        out[:d] = -xi / lam
        out[d] = 1.0
        out[d + 1] = 1j * a0 * w0 / lam
        return out / np.sqrt(2.0)
    lam = kg_lambda_slow(spec, xi) * (1 if branch == "slow+" else -1)
    out[n:n + d] = -th0 * xi / lam
    out[n + d] = 1.0
    out[n + d + 1] = 1j * w0 / lam
    return out


def kg_scalar_couplings(spec, phase: Phase, xi):
    """The two coupling scalars of the fast/slow resonance, in the text's
    vector normalization: returns ((Omega1(xi+k), B(e1) Omega2(xi)),
    (Omega2(xi), B(e-1) Omega1(xi+k)))."""
    e1 = kg_e1(spec, phase)
    om1 = kg_omega_vec(spec, np.atleast_1d(xi) + phase.k, "fast+")
    om2 = kg_omega_vec(spec, xi, "slow+")
    b1 = spec.B.symmetrized(e1)
    bm1 = spec.B.symmetrized(e1.conj())
    s1 = complex(np.vdot(om1, b1 @ om2))
    s2 = complex(np.vdot(om2, bm1 @ om1))
    return s1, s2


def kg_gamma12_product(spec, phase: Phase, xi):
    """Closed-form product of the coupling scalars: (iota) omega0^2/(4 w lam_slow(xi))."""
    w0 = spec.params["omega0"]
    iota = spec.params.get("iota", 1)
    return iota * w0 ** 2 / (4.0 * phase.omega * kg_lambda_slow(spec, xi))


def kg_gamma12_trace(spec, phase: Phase, xi):
    """Closed form of the orthoprojected interaction trace: half the scalar
    product (the slow-branch closed-form vector has squared norm 2)."""
    return kg_gamma12_product(spec, phase, xi) / 2.0


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


def three_wave_branch_map(spec, field):
    """Map mode index 1..3 (components u1, u2, u3) to field branch indices."""
    probe = np.array([1.3])
    lams = field.evaluate(probe[None]).lams[0]
    out = {}
    for mode in (1, 2, 3):
        target = spec.params[f"c{mode}"] * probe[0]
        j = int(np.argmin(np.abs(lams - target)))
        out[mode] = j
    return out


# ---------------------------------------------------------------------------
# magnetization-wave variety (negative control for boundedness)
# ---------------------------------------------------------------------------

def mll_characteristic_polynomial(xi1, xinorm):
    """Degree-9 characteristic polynomial coefficients (highest power first)
    of the linearized magnetization-wave system, as a polynomial in lambda.

    lambda^3 (lambda^6 - 2(2+|xi|^2) lambda^4
              + (|xi|^2 (6+|xi|^2) - 2 xi1^2) lambda^2
              - |xi|^2 (2|xi|^2 - xi1^2))
    """
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


def mll_asymptotic_slopes(cos_angle=1.0, radii=(200.0, 400.0)):
    """Branch slopes at infinity along a direction with xi1 = cos_angle * |xi|."""
    r1, r2 = radii
    v1 = mll_branch_values(cos_angle * r1, r1) / r1
    v2 = mll_branch_values(cos_angle * r2, r2) / r2
    return (r2 ** 2 * v2 - r1 ** 2 * v1) / (r2 ** 2 - r1 ** 2)


def mll_boundedness_verdict():
    """Boundedness verdict for the magnetization-wave resonant set.

    The asymptotic branches are not distinct (two branches share each slope
    +-1, and several vanish), so the distinct-slope criterion cannot certify a
    bounded resonant set: the verdict is 'undetermined', never 'bounded'.
    Slopes within the default policy's ``slope_tol`` coincide.
    """
    for cosa in (1.0, 0.7, 0.0):
        slopes = np.sort(mll_asymptotic_slopes(cosa))
        if np.min(np.diff(slopes)) <= DEFAULT_POLICY.slope_tol:
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

CATALOG_IDS = ("three-wave", "brillouin", "kg-equal", "kg-diff", "mll-variety", "em-dispersion")


def build_catalog_system(entry_id: str, **params) -> SystemSpec:
    """Build a stock system by id; parameters override the documented defaults."""
    if entry_id not in _BUILDERS:
        if entry_id in CATALOG_IDS:
            raise InputError(f"catalog entry '{entry_id}' is dispersion-only and has no system matrices")
        raise InputError(f"unknown catalog id '{entry_id}' (known: {', '.join(CATALOG_IDS)})")
    builder = _BUILDERS[entry_id]
    if entry_id in ("three-wave", "brillouin"):
        kw = {}
        if any(k in params for k in ("c1", "c2", "c3")):
            kw["c"] = (params.pop("c1", 1.0), params.pop("c2", 0.5), params.pop("c3", -0.5))
        if any(k in params for k in ("b1", "b2", "b3")):
            kw["b"] = (params.pop("b1", 0.0), params.pop("b2", 1.0), params.pop("b3", 1.0))
        kw.update(params)
        return builder(**kw)
    return builder(**params)


def stock_family(spec: SystemSpec) -> str:
    """Which stock closed forms describe ``spec``, read from its recorded
    parameters: ``c1`` means three-wave, ``omega0`` and ``theta0`` mean
    Klein-Gordon.  ``spec.name`` is only a label."""
    if "c1" in spec.params:
        return "three-wave"
    if "omega0" in spec.params and "theta0" in spec.params:
        return "klein-gordon"
    raise InputError(f"system '{spec.name}' has no stock closed forms (params record neither c1 "
                     "nor omega0/theta0): give it a characteristic phase with --omega/--k")


def default_phase(spec: SystemSpec, k=None) -> Phase:
    """The documented fundamental phase for a stock system."""
    if stock_family(spec) == "three-wave":
        return Phase(0.0, np.zeros(1))
    return kg_default_phase(spec, k=1.0 if k is None else k)


def reference_polarization(spec: SystemSpec, phase: Phase) -> np.ndarray:
    """Polarization of the reference solution: closed form for stock systems."""
    if stock_family(spec) == "three-wave":
        return three_wave_reference_direction().astype(complex)
    return kg_e1(spec, phase)
