"""System description: hyperbolic operator matrices, the bilinear source and
the fundamental phase.

A :class:`SystemSpec` is the single source of truth for all analyses: the
skew-symmetric zeroth-order matrix ``A0``, the symmetric transport matrices
``Aj``, the bilinear source ``B`` stored as sparse triplets
``(out, left, right, value)`` meaning ``B(u, v)[out] += value * u[left] * v[right]``,
and the phase a command analyses when given none, with the reference direction
of a phase whose kernel is not one-dimensional.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numeric import DEFAULT_POLICY, InputError, NumericPolicy


@dataclass(frozen=True)
class BilinearMap:
    """Sparse bilinear map R^N x R^N -> R^N stored as coefficient triplets."""

    N: int
    triplets: tuple  # of (out, left, right, value)

    def __post_init__(self):
        for (o, l, r, v) in self.triplets:
            if not (0 <= o < self.N and 0 <= l < self.N and 0 <= r < self.N):
                raise InputError(f"triplet index out of range for N={self.N}: {(o, l, r, v)}")
            if np.iscomplexobj(v):
                raise InputError(f"B triplet {(o, l, r)} has a non-real value {v}")
            if not np.isfinite(v):
                raise InputError(f"B triplet {(o, l, r)} has a non-finite value {v}")

    @cached_property
    def rows(self) -> tuple:
        """The sorted rows a nonzero triplet writes; B(u, v) is 0 on every other row."""
        return tuple(sorted({o for (o, _, _, v) in self.triplets if v != 0}))

    def __call__(self, u, v, out=None):
        """Evaluate B(u, v).  Accepts vectors of shape (N,) or fields (N, M).
        Triplets whose value is exactly 0 add nothing.  Without ``out`` the
        result is a new array, 0 off :attr:`rows`; into a given ``out`` only
        :attr:`rows` are zeroed and written, and the other rows keep their values."""
        u = np.asarray(u)
        v = np.asarray(v)
        row = np.empty(u.shape[1:], dtype=np.result_type(u, v))
        if out is None:
            out = np.zeros(u.shape, dtype=row.dtype)
        else:
            for o in self.rows:
                out[o] = 0
        for (o, l, r, val) in self.triplets:
            if val != 0:
                out[o] += np.multiply(np.multiply(val, u[l], out=row), v[r], out=row)
        return out

    def symmetrized(self, vec):
        """Matrix of w -> B(vec, w) + B(w, vec), the source linearized at vec."""
        vec = np.asarray(vec)
        M = np.zeros((self.N, self.N), dtype=np.result_type(vec, float))
        for (o, l, r, val) in self.triplets:
            M[o, r] += val * vec[l]
            M[o, l] += val * vec[r]
        return M

    def scaled(self, s: float) -> "BilinearMap":
        return BilinearMap(self.N, tuple((o, l, r, s * v) for (o, l, r, v) in self.triplets))

    @property
    def norm_bound(self) -> float:
        """Bound on the sup norm of B(u, u) for sup-unit u (row sum of |values|)."""
        rows = np.zeros(self.N)
        for (o, _, _, val) in self.triplets:
            rows[o] += abs(val)
        return float(rows.max()) if self.N else 0.0


@dataclass(frozen=True)
class Phase:
    """Temporal frequency and spatial wavenumber of the fundamental oscillation."""

    omega: float
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", np.atleast_1d(np.asarray(self.k, dtype=float)))
        object.__setattr__(self, "omega", float(self.omega))


@dataclass(frozen=True)
class SystemSpec:
    """Semilinear hyperbolic system with a large zeroth-order term.

    Fields
    ------
    N : state dimension
    d : spatial dimension (1 or 2)
    A0 : real skew-symmetric N x N matrix (large zeroth-order term)
    Aj : tuple of d real symmetric N x N transport matrices
    B : bilinear source
    name : identifier
    params : free-form parameter map (labels; see :func:`catalog.with_stock_phase`)
    policy : the tolerances every decision about this system reads, this
        validation included; set with ``dataclasses.replace(spec, policy=...)``
        (system files do not store it)
    phase : the fundamental phase a command takes when given no ``--omega/--k``
    k_bound : a ``--k`` on the phase's branch must keep |k| below it
    reference_direction : real N-vector, the polarization of a phase whose
        kernel is not one-dimensional (None: such a phase is refused)
    """

    name: str
    N: int
    d: int
    A0: np.ndarray
    Aj: tuple
    B: BilinearMap
    params: dict = field(default_factory=dict)
    policy: NumericPolicy = DEFAULT_POLICY
    phase: Phase = None
    k_bound: float = np.inf
    reference_direction: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "A0", np.asarray(self.A0, dtype=float))
        object.__setattr__(self, "Aj", tuple(np.asarray(a, dtype=float) for a in self.Aj))
        if self.d not in (1, 2):
            raise InputError(f"spatial dimension must be 1 or 2, got {self.d}")
        for what, a in [("A0", self.A0)] + [(f"A{j + 1}", a) for j, a in enumerate(self.Aj)]:
            for idx in np.argwhere(~np.isfinite(a))[:1]:
                raise InputError(f"{what}{[int(i) for i in idx]} is not finite: {a[tuple(idx)]}")
        if self.A0.shape != (self.N, self.N):
            raise InputError("A0 has wrong shape")
        if len(self.Aj) != self.d:
            raise InputError("need one transport matrix per spatial dimension")
        tol = self.policy.sym_tol
        scale = 1.0 + abs(self.A0).max()
        if abs(self.A0 + self.A0.T).max() > tol * scale:
            raise InputError("A0 must be skew-symmetric")
        for j, a in enumerate(self.Aj):
            if a.shape != (self.N, self.N):
                raise InputError(f"A{j + 1} has wrong shape")
            if abs(a - a.T).max() > tol * (1.0 + abs(a).max()):
                raise InputError(f"A{j + 1} must be symmetric")
        if self.B.N != self.N:
            raise InputError("bilinear map dimension mismatch")
        if self.phase is not None and not (len(self.phase.k) == self.d and np.all(
                np.isfinite([self.phase.omega, *self.phase.k]))):
            raise InputError(f"phase must be finite, with a wavenumber of dimension {self.d}")
        if self.reference_direction is not None:
            r = np.asarray(self.reference_direction)
            if (np.iscomplexobj(r) or r.shape != (self.N,) or not np.all(np.isfinite(r))
                    or not r.any()):
                raise InputError(f"reference_direction must be a finite nonzero real {self.N}-vector")
            object.__setattr__(self, "reference_direction", r.astype(float))

    def transport_symbol(self, xi):
        """A(xi) = sum_j xi_j Aj as a real symmetric matrix."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.d,):
            raise InputError(f"frequency point must have dimension {self.d}")
        out = np.zeros((self.N, self.N))
        for c, a in zip(xi, self.Aj):
            out += c * a
        return out

    @property
    def a0_spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A0)))) if self.N else 0.0


def _fmt(x: float) -> str:
    # 17 significant digits round-trips IEEE doubles exactly
    return format(float(x), ".17g")


def spec_to_dict(spec: SystemSpec) -> dict:
    doc = {
        "name": spec.name,
        "N": spec.N,
        "d": spec.d,
        "A0": [[_fmt(x) for x in row] for row in spec.A0],
        "Aj": [[[_fmt(x) for x in row] for row in a] for a in spec.Aj],
        "B": [[o, l, r, _fmt(v)] for (o, l, r, v) in spec.B.triplets],
        "params": {k: (_fmt(v) if isinstance(v, float) else v) for k, v in spec.params.items()},
    }
    if spec.phase is not None:
        doc["phase"] = {"omega": _fmt(spec.phase.omega), "k": [_fmt(x) for x in spec.phase.k]}
        if np.isfinite(spec.k_bound):
            doc["phase"]["k_bound"] = _fmt(spec.k_bound)
    if spec.reference_direction is not None:
        doc["reference_direction"] = [_fmt(x) for x in spec.reference_direction]
    return doc


def spec_from_dict(doc: dict) -> SystemSpec:
    N = int(doc["N"])
    params = {}
    for k, v in doc.get("params", {}).items():
        if isinstance(v, str):
            try:
                v = float(v)
            except ValueError:
                pass
        params[k] = v
    phase, direction = doc.get("phase"), doc.get("reference_direction")
    return SystemSpec(
        name=doc["name"],
        N=N,
        d=int(doc["d"]),
        A0=np.array([[float(x) for x in row] for row in doc["A0"]]),
        Aj=tuple(np.array([[float(x) for x in row] for row in a]) for a in doc["Aj"]),
        B=BilinearMap(N, tuple((int(o), int(l), int(r), float(v)) for (o, l, r, v) in doc["B"])),
        params=params,
        phase=None if phase is None else Phase(float(phase["omega"]),
                                               [float(x) for x in phase["k"]]),
        k_bound=float(phase.get("k_bound", np.inf)) if phase else np.inf,
        reference_direction=None if direction is None else [float(x) for x in direction],
    )


def save_spec(spec: SystemSpec, path: str) -> None:
    """Write a system file atomically (temp file + rename)."""
    write_atomic(path, (json.dumps(spec_to_dict(spec), indent=1) + "\n").encode())


def load_spec(path: str) -> SystemSpec:
    """Read a system file.  A file that cannot be read, text that is not
    JSON, a missing key or a malformed entry raises :class:`InputError`
    naming the file."""
    try:
        with open(path) as f:
            doc = json.load(f)
        return spec_from_dict(doc)
    except OSError as exc:
        raise InputError(f"cannot read system file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"system file {path} is not JSON: {exc}") from None
    except KeyError as exc:
        raise InputError(f"system file {path} lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"system file {path}: {exc}") from None


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it over ``path``.
    A path that cannot be written (a missing directory, a directory) raises
    :class:`InputError` naming it, and leaves no temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-oscillant-")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        raise
