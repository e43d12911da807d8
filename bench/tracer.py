"""Outside-in tracer: spans and counters recorded around oscillant's entry points.

The tracer patches each entry point where the program looks it up (a module
attribute or a class attribute), so no program file changes.  A span is
recorded around every call of a layer entry point; a counter (eigh, FFT,
expm, assignment calls) adds its calls, size and time to the innermost open
span, so each count lands in the layer that caused it.  Spans live in memory
and are written out by the harness when the run ends.

The tracer is single-threaded: the benchmark runs sweeps with one worker, and
a call from another thread raises rather than corrupting the span stack.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "counts")

    def __init__(self, name, start, parent, case):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.case = case
        self.counts = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Span stack plus the patches that feed it; ``install`` / ``uninstall``."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.case = ""
        self._stack: list[int] = []
        self._clock = clock
        self._thread = threading.get_ident()
        self._patches = []

    # -- spans and counts ------------------------------------------------------

    def open(self, name) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError("the tracer records one thread only")
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent, self.case))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError("spans must close innermost first")
        self._stack.pop()
        self.spans[idx].end = self._clock()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def count(self, key, size, seconds):
        """Add one call of counter ``key`` to the innermost open span: its
        calls, its summed size (``key_size``) and time (``key_s``)."""
        if not self._stack:
            raise RuntimeError(f"counter {key} called outside every span")
        c = self.spans[self._stack[-1]].counts
        c[key] = c.get(key, 0) + 1
        c[key + "_size"] = c.get(key + "_size", 0) + size
        c[key + "_s"] = c.get(key + "_s", 0.0) + seconds

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        out, self.spans = self.spans, []
        return out

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr, replacement):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def traced_callable(self, fn, name, measure=None):
        """``fn`` with a span ``name`` around each call; ``measure(result)``
        returns counts to store on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                for key, value in measure(out).items():
                    self.spans[idx].add(key, value)
            return out
        return traced

    def wrap_span(self, owner, attr, name, measure=None):
        original = getattr(owner, attr)
        self.patch(owner, attr, self.traced_callable(original, name, measure))

    def wrap_counter(self, owner, attr, key, size):
        original = getattr(owner, attr)
        clock = self._clock

        @functools.wraps(original)
        def counted(*args, **kwargs):
            t0 = clock()
            out = original(*args, **kwargs)
            self.count(key, size(*args, **kwargs), clock() - t0)
            return out
        self.patch(owner, attr, counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _resolve(path):
    """'pkg.module' or 'pkg.module:Class' -> the object to patch."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _matrices(a, *args, **kwargs):
    shape = getattr(a, "shape", ())
    n = 1
    for m in shape[:-2]:
        n *= m
    return n


def _points(a, *args, **kwargs):
    return int(getattr(a, "size", 1))


def _one(*args, **kwargs):
    return 1


def _field_size(field):
    return {"points": len(field.points),
            "bytes": field.points.nbytes + field.lambdas.nbytes + field.projectors.nbytes}


def _root_count(report):
    return {"roots": sum(len(pr.roots) for pr in report.pairs.values() if not pr.auto)}


def _snapshot_size(sol):
    return {"bytes": sol.g.nbytes}


# (where the program looks the entry point up, attribute, span name, measure)
SPANS = [
    ("oscillant.experiments", "analyze", "experiments.analyze", None),
    ("oscillant.experiments", "flow_bound_experiment", "experiments.flow_bound", None),
    ("oscillant.experiments", "run_simulation", "experiments.run_simulation", None),
    ("oscillant.experiments", "run_sweep", "experiments.run_sweep", None),
    ("oscillant.experiments", "eigendecompose_field", "spectral.field", _field_size),
    ("oscillant.spectral:SpectralField", "eigensystem_at", "spectral.eval", None),
    ("oscillant.resonance", "asymptotic_slopes", "spectral.slopes", None),
    ("oscillant.experiments", "find_resonances", "resonance.find", _root_count),
    ("oscillant.experiments", "stability_report", "interaction.report", None),
    ("oscillant.interaction", "pair_coefficients_at", "interaction.coeff", None),
    ("oscillant.experiments", "pair_coefficients_at", "interaction.coeff", None),
    ("oscillant.interaction", "transparency_check", "interaction.transparency", None),
    ("oscillant.experiments", "interaction_matrix_factory", "flow.factory", None),
    ("oscillant.experiments", "integrate_flow", "flow.integrate", None),
    ("oscillant.experiments", "epsilon_sweep", "simulate.sweep", None),
    ("oscillant.experiments", "run_instability_experiment", "simulate.run", None),
    ("oscillant.simulate", "run_instability_experiment", "simulate.run", None),
    ("oscillant.wkb", "solve_transport", "wkb.transport", _snapshot_size),
    ("oscillant.wkb", "pde_residual", "wkb.residual", None),
    ("oscillant.wkb", "weak_transparency_check", "wkb.transparency", None),
]

# (where looked up, attribute, counter key, size of one call)
COUNTERS = [
    ("numpy.linalg", "eigh", "eigh", _matrices),
    ("numpy.fft", "fft", "fft", _points),
    ("numpy.fft", "ifft", "fft", _points),
    ("oscillant.flow", "expm", "expm", _one),
    ("oscillant.spectral", "linear_sum_assignment", "assign", _one),
]


def install(tracer: Tracer):
    """Patch every entry point in SPANS and COUNTERS, and the reference
    solutions the simulator compares with."""
    for path, attr, name, measure in SPANS:
        tracer.wrap_span(_resolve(path), attr, name, measure)
    for path, attr, key, size in COUNTERS:
        tracer.wrap_counter(_resolve(path), attr, key, size)
    experiments = _resolve("oscillant.experiments")
    make_reference = experiments.reference_solution

    @functools.wraps(make_reference)
    def reference_solution(*args, **kwargs):
        return tracer.traced_callable(make_reference(*args, **kwargs), "simulate.reference")
    tracer.patch(experiments, "reference_solution", reference_solution)


@contextmanager
def installed(tracer: Tracer):
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


# -- analysis of recorded spans ----------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def _descends_from(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _in_checks(spans) -> list[bool]:
    """Which spans lie inside a ``bench.check`` span (the benchmark's own checks).
    A parent is always recorded before its children."""
    inside = []
    for s in spans:
        inside.append(s.name == "bench.check" or (s.parent >= 0 and inside[s.parent]))
    return inside


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round (one set-up plus one pass).

    Spans inside the benchmark's own checks are left out."""
    selfs = self_times(spans)
    skip = _in_checks(spans)
    total = defaultdict(float)      # span name -> summed duration
    calls = defaultdict(int)        # span name -> number of spans
    own = defaultdict(float)        # span name -> summed self time
    counts = defaultdict(float)     # (layer, key) -> summed count
    biggest = defaultdict(float)    # (span name, key) -> largest single count
    for s, st, dropped in zip(spans, selfs, skip):
        if dropped:
            continue
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        own[s.name] += st
        for key, value in s.counts.items():
            counts[(s.layer, key)] += value
            biggest[(s.name, key)] = max(biggest[(s.name, key)], value)
    evals_in = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name == "spectral.eval" and not skip[i]:
            for owner in ("resonance.find", "interaction.report"):
                if _descends_from(spans, i, owner):
                    evals_in[owner] += 1
    roots = counts[("resonance", "roots")]
    steps = counts[("flow", "expm")]
    return {
        "spectral.field_s": total["spectral.field"],
        "spectral.field_points": counts[("spectral", "points")],
        "spectral.field_bytes": biggest[("spectral.field", "bytes")],
        "spectral.eval_calls": calls["spectral.eval"],
        "spectral.eval_s": total["spectral.eval"],
        "spectral.eigh_matrices": counts[("spectral", "eigh_size")],
        "spectral.eigh_calls": counts[("spectral", "eigh")],
        "spectral.assign_calls": counts[("spectral", "assign")],
        "spectral.slopes_s": total["spectral.slopes"],
        "resonance.find_self_s": own["resonance.find"],
        "resonance.roots": roots,
        "resonance.evals_per_root": evals_in["resonance.find"] / roots if roots else 0.0,
        "interaction.report_self_s": own["interaction.report"],
        "interaction.coeff_calls": calls["interaction.coeff"],
        "interaction.coeff_s": total["interaction.coeff"],
        "interaction.transparency_s": total["interaction.transparency"],
        "interaction.evals": evals_in["interaction.report"],
        "flow.integrate_s": total["flow.integrate"],
        "flow.trajectories": calls["flow.integrate"],
        "flow.steps": steps,
        "flow.expm_s": counts[("flow", "expm_s")],
        "flow.step_us": 1e6 * total["flow.integrate"] / steps if steps else 0.0,
        "flow.factory_s": total["flow.factory"],
        "simulate.run_s": total["simulate.run"],
        "simulate.fft_calls": counts[("simulate", "fft")],
        "simulate.fft_points": counts[("simulate", "fft_size")],
        "simulate.fft_s": counts[("simulate", "fft_s")],
        "simulate.eigh_s": counts[("simulate", "eigh_s")],
        "simulate.reference_s": total["simulate.reference"],
        "wkb.transport_s": total["wkb.transport"],
        "wkb.residual_s": total["wkb.residual"],
        "wkb.fft_calls": counts[("wkb", "fft")],
        "wkb.fft_s": counts[("wkb", "fft_s")],
        "wkb.snapshot_bytes": biggest[("wkb.transport", "bytes")],
        "wkb.transparency_s": total["wkb.transparency"],
        "experiments.analyze_s": total["experiments.analyze"],
    }


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def span_records(spans) -> list:
    """Spans as JSON-ready rows: name, start, end, parent, case, self time, counts."""
    return [[s.name, s.start, s.end, s.parent, s.case, st, s.counts]
            for s, st in zip(spans, self_times(spans))]
