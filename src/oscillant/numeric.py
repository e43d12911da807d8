"""Shared numeric tolerances and error types.

The shared tolerances live in one :class:`NumericPolicy` record; some
routines still carry literal tolerances of their own.
"""
from dataclasses import dataclass


class InputError(ValueError):
    """Malformed or out-of-range user input."""


class NumericalError(RuntimeError):
    """A numerical routine failed (eigensolver breakdown, unresolved grid, ...)."""


class MultiplicityError(NumericalError):
    """A kernel or eigenvalue had unexpected multiplicity for the requested operation."""


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerance knobs used across the analysis pipeline.

    Relative tolerances are applied against a natural scale of the object
    under test (matrix norm, coefficient sup, ...).
    """

    algebra_tol: float = 1e-10      # projector algebra, reconstruction, conjugation identities
    herm_tol: float = 1e-14        # hermitianity of assembled symbols
    sym_tol: float = 1e-12         # symmetry/skew-symmetry of system matrices
    char_tol: float = 1e-8         # relative singular-value threshold for "characteristic"
    root_tol: float = 1e-10        # bisection residual target for resonance roots
    root_report_tol: float = 1e-8  # residual bound that stored roots must satisfy
    degenerate_tol: float = 1e-9   # eigenvalue clustering width for coalesced branches
    transparent_tol: float = 1e-8  # coefficient norm below which a root counts as transparent
    nontransparent_tol: float = 1e-6  # coefficient norm above which a root is non-transparent
    rank_gap: float = 1e6          # singular-value gap demanded of numerically rank-one matrices
    index_degenerate_tol: float = 1e-10  # |stability index| below this (times scale) is degenerate
    slope_tol: float = 1e-6        # asymptotic slopes closer than this coincide


DEFAULT_POLICY = NumericPolicy()


def supnorm(z) -> float:
    """Matrix norm induced by the sup norm on vectors (max absolute row sum);
    for vectors, the plain sup norm."""
    import numpy as np

    z = np.asarray(z)
    if z.ndim <= 1:
        return float(np.max(np.abs(z))) if z.size else 0.0
    return float(np.max(np.sum(np.abs(z), axis=1)))
