"""System description: hyperbolic operator matrices and the bilinear source.

A :class:`SystemSpec` is the single source of truth for all analyses: the
skew-symmetric zeroth-order matrix ``A0``, the symmetric transport matrices
``Aj``, and the bilinear source ``B`` stored as sparse triplets
``(out, left, right, value)`` meaning ``B(u, v)[out] += value * u[left] * v[right]``.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

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

    def __call__(self, u, v, out=None):
        """Evaluate B(u, v), into ``out`` if given.  Accepts vectors of shape
        (N,) or fields (N, M).  Triplets whose value is exactly 0 add nothing."""
        u = np.asarray(u)
        v = np.asarray(v)
        row = np.empty(u.shape[1:], dtype=np.result_type(u, v))
        if out is None:
            out = np.empty(u.shape, dtype=row.dtype)
        out.fill(0)
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
    params : free-form parameter map (catalog metadata)
    policy : the tolerances every decision about this system reads, this
        validation included; set with ``dataclasses.replace(spec, policy=...)``
        (system files do not store it)
    """

    name: str
    N: int
    d: int
    A0: np.ndarray
    Aj: tuple
    B: BilinearMap
    params: dict = field(default_factory=dict)
    policy: NumericPolicy = DEFAULT_POLICY

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
    return {
        "name": spec.name,
        "N": spec.N,
        "d": spec.d,
        "A0": [[_fmt(x) for x in row] for row in spec.A0],
        "Aj": [[[_fmt(x) for x in row] for row in a] for a in spec.Aj],
        "B": [[o, l, r, _fmt(v)] for (o, l, r, v) in spec.B.triplets],
        "params": {k: (_fmt(v) if isinstance(v, float) else v) for k, v in spec.params.items()},
    }


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
    return SystemSpec(
        name=doc["name"],
        N=N,
        d=int(doc["d"]),
        A0=np.array([[float(x) for x in row] for row in doc["A0"]]),
        Aj=tuple(np.array([[float(x) for x in row] for row in a]) for a in doc["Aj"]),
        B=BilinearMap(N, tuple((int(o), int(l), int(r), float(v)) for (o, l, r, v) in doc["B"])),
        params=params,
    )


def save_spec(spec: SystemSpec, path: str) -> None:
    """Write a system file atomically (temp file + rename)."""
    write_text_atomic(path, json.dumps(spec_to_dict(spec), indent=1) + "\n")


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


def write_text_atomic(path: str, text: str) -> None:
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-oscillant-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
