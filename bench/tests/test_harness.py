from bench import harness
from bench.workloads import Case


def boom():
    raise ValueError("broken case")


def test_failing_check_and_raising_case_are_counted():
    cases = [Case("good", lambda: 1, lambda out: []),
             Case("wrong-verdict", lambda: "stable", lambda out: [f"verdict {out}"]),
             Case("raises", boom, lambda out: []),
             Case("check-raises", lambda: None, lambda out: out["missing"])]
    tally = harness.Tally()
    times = {}
    wall = harness.run_pass(cases, tally, times)
    assert tally.attempted == 4
    assert [name for name, _ in tally.failures] == ["wrong-verdict", "raises", "check-raises"]
    assert "ValueError" in tally.failures[1][1][0]
    assert set(times) == {c.name for c in cases}
    assert wall >= 0.0
    result = harness.result_line({"wall_s": wall}, tally, [("wall_s", "s")])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_traced_pass_counts_failures_too():
    from bench import tracer as tracing
    tr = tracing.Tracer()
    tally = harness.Tally()
    harness.run_pass([Case("wrong", lambda: 0, lambda out: ["bad"])], tally, {}, tr, "r0/")
    assert (tally.attempted, len(tally.failures)) == (1, 1)
    assert [s.name for s in tr.take()] == ["bench.case", "bench.check"]


def test_traced_rounds_pair_each_case_and_alternate_which_goes_first():
    import numpy
    from bench.workloads import Setup

    plain_eigh = numpy.linalg.eigh
    log = []

    def make_case(name):
        return Case(name, lambda: log.append((name, numpy.linalg.eigh is not plain_eigh)),
                    lambda out: [])

    tally = harness.Tally()
    metrics, info = harness.measure_traced(
        lambda: Setup([make_case("a"), make_case("b")]), 0.0, tally)
    # warm-up pass untraced, then one round: a traced first, b untraced first
    assert log == [("a", False), ("b", False),
                   ("a", True), ("a", False), ("b", False), ("b", True)]
    assert info["rounds"] == 1 and not tally.failures
    assert set(info["case_s"]) == set(info["untraced_case_s"]) == {"a", "b"}
    assert "trace.overhead_s" in metrics
