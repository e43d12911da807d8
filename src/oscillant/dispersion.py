"""Plasma dispersion relations (two-fluid model) and three-phase matching.

Transverse branch:  omega^2 = 1 + k^2 + (theta_i/theta_e)^2.
Longitudinal branches solve
    (omega^2 - alpha^2 k^2 theta_i^2)(omega^2 - 1 - k^2 theta_e^2)
        = (omega^2 - k^2 theta_e^2) (theta_i/theta_e)^2,
a quadratic in omega^2 whose large root is the electron-wave branch and whose
small root is the acoustic branch.  Phase matching refines every sign change
of its mismatch by the resonance module's lockstep bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import InputError
from .resonance import _bisect

RELATIONS = ("euler-maxwell-transverse", "euler-maxwell-longitudinal-l",
             "euler-maxwell-longitudinal-s")


def omega_transverse(k, theta_e, theta_i, alpha=0.5):
    """Positive transverse frequency."""
    return np.sqrt(1.0 + np.asarray(k, dtype=float) ** 2 + (theta_i / theta_e) ** 2)


def _longitudinal_roots(k, theta_e, theta_i, alpha):
    k = np.asarray(k, dtype=float)
    a = alpha ** 2 * k ** 2 * theta_i ** 2
    b = 1.0 + k ** 2 * theta_e ** 2
    c = (theta_i / theta_e) ** 2
    d = k ** 2 * theta_e ** 2
    # omega^4 - (a + b + c) omega^2 + (a b + c d) = 0
    s = a + b + c
    p = a * b + c * d
    disc = np.sqrt(np.maximum(s ** 2 - 4.0 * p, 0.0))
    return (s + disc) / 2.0, (s - disc) / 2.0


def omega_longitudinal_l(k, theta_e, theta_i, alpha=0.5):
    """Positive electron-plasma-wave frequency (large longitudinal root)."""
    large, _ = _longitudinal_roots(k, theta_e, theta_i, alpha)
    return np.sqrt(large)


def omega_longitudinal_s(k, theta_e, theta_i, alpha=0.5):
    """Positive acoustic frequency (small longitudinal root)."""
    _, small = _longitudinal_roots(k, theta_e, theta_i, alpha)
    return np.sqrt(small)


_BRANCH_FN = {
    "euler-maxwell-transverse": omega_transverse,
    "euler-maxwell-longitudinal-l": omega_longitudinal_l,
    "euler-maxwell-longitudinal-s": omega_longitudinal_s,
}


def dispersion_residual(relation, omega, k, theta_e, theta_i, alpha=0.5):
    """Relative defect of (omega, k) on the requested branch."""
    w = _BRANCH_FN[relation](k, theta_e, theta_i, alpha)
    return abs(omega - w) / (1.0 + abs(w))


@dataclass
class PhaseMatch:
    """A resolved three-phase resonance beta = beta1 + beta2 on the variety."""

    k1: float
    k2: float
    k: float
    omega1: float
    omega2: float
    omega: float
    branch2_sign: int
    residuals: tuple  # per-phase dispersion residuals


class NotMatchableError(InputError):
    """No phase-matched triple exists in the search bracket (below threshold)."""


def match_phases_on_dispersion(relation, params, k1, bracket=(-60.0, 60.0)):
    """Solve the three-phase matching beta = beta1 + beta2 on the variety.

    ``beta1 = (omega_t(k1), k1)`` is transverse; ``beta2`` is transverse with
    either frequency sign; the sum must land on the requested longitudinal (or
    transverse) branch.  Returns the matched wavenumbers and the dispersion
    residuals of all three phases.
    """
    if relation not in RELATIONS:
        raise InputError(f"unknown dispersion relation '{relation}'")
    theta_e = float(params["theta_e"])
    theta_i = float(params["theta_i"])
    alpha = float(params.get("alpha", 0.5))
    target = _BRANCH_FN[relation]
    w1 = float(omega_transverse(k1, theta_e, theta_i, alpha))

    def mismatch(k2, sign):
        return (w1 + sign * omega_transverse(k2, theta_e, theta_i, alpha)
                - target(k1 + k2, theta_e, theta_i, alpha))

    # sign changes of both partner signs on one scan, refined in lockstep and
    # taken in (sign, k2) order
    xs = np.linspace(bracket[0], bracket[1], 4001)
    signs = np.array([+1.0, -1.0])[:, None]
    vals = mismatch(xs, signs)
    s, h = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0)
    roots, _ = _bisect(lambda m, idx: mismatch(m[:, 0], signs[s[idx], 0]), xs[h], xs[h + 1],
                       vals[s, h])
    for sign, k2 in zip(signs[s, 0].astype(int).tolist(), roots[:, 0].tolist()):
        k = k1 + k2
        if min(abs(k2), abs(k)) < 1e-9:
            continue  # no match: beta2 with k2 = 0, or beta2 = -beta1 (beta = 0)
        w2 = sign * float(omega_transverse(k2, theta_e, theta_i, alpha))
        w = w1 + w2
        res = (
            dispersion_residual("euler-maxwell-transverse", w1, k1, theta_e, theta_i, alpha),
            dispersion_residual("euler-maxwell-transverse", abs(w2), k2, theta_e, theta_i, alpha),
            dispersion_residual(relation, w, k, theta_e, theta_i, alpha),
        )
        return PhaseMatch(k1=float(k1), k2=k2, k=float(k), omega1=w1, omega2=w2,
                          omega=float(w), branch2_sign=sign, residuals=res)
    raise NotMatchableError(f"no phase-matched partner for k1={k1} on {relation} in {bracket}")
