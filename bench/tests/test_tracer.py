import numpy as np
import pytest

from bench import tracer as tracing


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    with tr.span("a.outer"):            # 0 .. 10
        clock.t = 1.0
        with tr.span("b.child"):        # 1 .. 4
            clock.t = 2.0
            with tr.span("c.grandchild"):   # 2 .. 3
                clock.t = 3.0
            clock.t = 4.0
        clock.t = 6.0
        with tr.span("b.child"):        # 6 .. 9
            clock.t = 9.0
        clock.t = 10.0
    spans = tr.take()
    assert [s.parent for s in spans] == [-1, 0, 1, 0]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_merges_overlapping_children():
    spans = [tracing.Span("a.x", 0.0, -1, ""), tracing.Span("b.y", 1.0, 0, ""),
             tracing.Span("b.z", 2.0, 0, ""), tracing.Span("b.w", 8.0, 0, "")]
    for s, end in zip(spans, (10.0, 4.0, 5.0, 12.0)):
        s.end = end
    # children cover [1, 5] and [8, 10] (clipped to the parent)
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_counts_go_to_innermost_span_and_patches_are_undone():
    class Owner:
        @staticmethod
        def work(x):
            return 2 * x

    original = Owner.__dict__["work"]
    tr = tracing.Tracer()
    tr.wrap_counter(Owner, "work", "op", lambda x: x)
    with tr.span("outer.a"):
        Owner.work(3)
        with tr.span("inner.b"):
            assert Owner.work(5) == 10
            Owner.work(7)
    tr.uninstall()
    assert Owner.__dict__["work"] is original
    outer, inner = tr.take()
    assert outer.counts["op"] == 1 and outer.counts["op_size"] == 3
    assert inner.counts["op"] == 2 and inner.counts["op_size"] == 12


def test_count_outside_every_span_raises():
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        tr.count("op", 1, 0.0)


def test_checks_are_left_out_of_layer_metrics():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    with tr.span("bench.case"):
        with tr.span("spectral.eval"):
            clock.t = 1.0
        with tr.span("bench.check"):
            with tr.span("spectral.eval"):
                clock.t = 5.0
    m = tracing.layer_metrics(tr.take())
    assert m["spectral.eval_calls"] == 1
    assert m["spectral.eval_s"] == pytest.approx(1.0)


def test_installed_probes_trace_the_program_and_restore_it():
    import numpy
    from oscillant import catalog, experiments
    from oscillant.spectral import SpectralField

    before = (numpy.linalg.eigh, experiments.analyze, SpectralField.__dict__["eigensystem_at"])
    tr = tracing.Tracer()
    with tracing.installed(tr):
        with tr.span("bench.case"):
            spec = catalog.kg_equal()
            field = experiments.eigendecompose_field(spec, (np.linspace(-2.0, 2.0, 9),))
            field.lambda_at([0.3])
    assert before == (numpy.linalg.eigh, experiments.analyze,
                      SpectralField.__dict__["eigensystem_at"])
    m = tracing.layer_metrics(tr.take())
    assert m["spectral.field_points"] == 9
    assert m["spectral.eval_calls"] == 1
    # one assignment per grid point after the first, one for the evaluation;
    # crossings add eigh calls on top of one per point
    assert m["spectral.assign_calls"] == 8 + 1
    assert m["spectral.eigh_calls"] >= 9 + 1
    assert m["simulate.fft_calls"] == 0 and m["flow.steps"] == 0
