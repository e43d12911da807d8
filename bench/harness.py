"""Measurement loop of the benchmark: set-up, timed passes, checks, result line.

Untraced (``--trace 0``): the workload's set-up runs ``SETUP_REPEATS`` times
and the import of oscillant is timed in as many fresh interpreters; then a
warm-up pass runs every case once, checked but not timed into the metrics,
and the cases run in turn, one full pass and then more while they fit in
``--seconds`` counted from the end of set-up.
Traced (``--trace 1``): after an untraced warm-up pass, rounds of one traced
set-up plus every case run twice, traced and untraced back to back; each
per-layer metric is the median over rounds, and the tracing overhead is
measured within the run.

The last line of standard output is the result object; the line before it
records the environment, a probe of the machine's speed and the per-case
timings.  A full record, with the spans of the first traced round, goes to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from bench import tracer as tracing
from bench.manifest import ROOT, load
from bench.workloads import WORKLOADS

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import oscillant.experiments; "
                "print(time.perf_counter() - t)")


@dataclass
class Tally:
    """Cases attempted and the problems of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)   # (case, problems)

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failures.append((name, list(problems)))
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)


def run_case(case, tally: Tally, tr=None) -> float:
    """Time ``case.run`` and check its output.  A raise or a failed check is
    counted in ``tally``, never swallowed; returns the seconds the run took.
    Under a tracer the check runs in a ``bench.check`` span, which the layer
    metrics leave out."""
    t0 = time.perf_counter()
    try:
        out = case.run()
    except Exception as exc:                      # counted as a failed case
        seconds = time.perf_counter() - t0
        tally.record(case.name, [f"raised {type(exc).__name__}: {exc}"])
        return seconds
    seconds = time.perf_counter() - t0
    try:
        if tr is None:
            problems = case.check(out)
        else:
            with tr.span("bench.check"):
                problems = case.check(out)
    except Exception as exc:                      # a crashing check is a failure too
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(case.name, problems)
    return seconds


def run_pass(cases, tally, times: dict, tr=None, tag="") -> float:
    """Every case once; returns the summed case time (time to all verdicts)."""
    wall = 0.0
    for case in cases:
        if tr is None:
            seconds = run_case(case, tally)
        else:
            tr.case = f"{tag}{case.name}"
            with tr.span("bench.case"):
                seconds = run_case(case, tally, tr)
        times.setdefault(case.name, []).append(seconds)
        wall += seconds
    return wall


def do_setup(make_setup, tally, tr=None):
    t0 = time.perf_counter()
    if tr is None:
        setup = make_setup()
    else:
        with tr.span("bench.setup"):
            setup = make_setup()
    seconds = time.perf_counter() - t0
    for name, problems in setup.checked:
        tally.record(name, problems)
    return setup, seconds


def import_seconds(n) -> list:
    """Import time of oscillant in ``n`` fresh interpreters (same thread caps)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_probe() -> float:
    """Median seconds of three runs of a fixed numpy job (small eigh and FFT
    calls, the program's staples), recorded beside the results so that a
    drift of the machine's speed can be told apart from a change of the program."""
    a = np.random.default_rng(0).standard_normal((6, 6))
    a = a + a.T
    x = np.random.default_rng(1).standard_normal(4096) + 0j
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(2500):
            np.linalg.eigh(a)
        for _ in range(250):
            np.fft.ifft(np.fft.fft(x))
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def keep_going(started, seconds, durations) -> bool:
    """Another case or round fits when its median time so far still ends
    within ``seconds`` of ``started``."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def measure(make_setup, seconds, tally) -> tuple[dict, dict]:
    """End-to-end metrics.  A warm-up pass runs first: a case's first run in
    a process can pay for first-touch memory and first transforms of a size
    (kg-run's, by 20% at the median of ten runs), so it is checked but not
    timed into the metrics.  After one timed pass, cases keep running in pass
    order while the next one's median time still ends within ``seconds`` of
    the end of set-up, so every case has one sample fewer or more than any other.

    wall_s is the sum over cases of each case's median time: the time to all
    verdicts of one pass.  case_p50_s is the median over cases of those
    medians, so it does not move with the mix of samples a run happens to end on.
    """
    setup_times, setup = [], None
    for _ in range(SETUP_REPEATS):
        setup, s = do_setup(make_setup, tally)
        setup_times.append(s)
    imports = import_seconds(SETUP_REPEATS)
    started = time.perf_counter()
    warm = {}
    run_pass(setup.cases, tally, warm)
    times = {case.name: [] for case in setup.cases}
    run_pass(setup.cases, tally, times)
    for case in itertools.cycle(setup.cases):
        if not keep_going(started, seconds, times[case.name]):
            break
        times[case.name].append(run_case(case, tally))
    medians = [statistics.median(ts) for ts in times.values()]
    metrics = {
        "wall_s": sum(medians),
        "case_p50_s": statistics.median(medians),
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"case_samples": sum(len(ts) for ts in times.values()), "case_s": times,
            "warm_up_s": warm, "setup_repeats_s": setup_times, "import_s": imports}
    return metrics, info


def measure_traced(make_setup, seconds, tally) -> tuple[dict, dict]:
    """Per-layer metrics and the tracing overhead.  After an untraced set-up
    and warm-up pass, each round runs one set-up under the tracer and then
    every case twice, traced and untraced back to back.  Which of the two
    goes first alternates from case to case and from round to round, and
    both run with the round's spans in memory, so neither the machine's drift
    nor the tracer's memory favours one side.  Each per-layer metric is its
    median over rounds; ``trace.overhead_s`` is the traced minus the untraced
    time of one pass.  The warm-up pass keeps a case's slower first run out
    of either side."""
    tr = tracing.Tracer()
    setup, _ = do_setup(make_setup, tally)
    run_pass(setup.cases, tally, {})
    rounds, durations, traced, plain, first = [], [], {}, {}, None
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = len(rounds)
        tag = f"r{r}/"
        with tracing.installed(tr):
            tr.case = tag + "setup"
            setup, _ = do_setup(make_setup, tally, tr)
        for i, case in enumerate(setup.cases):
            for with_tracer in ((True, False) if (i + r) % 2 == 0 else (False, True)):
                if with_tracer:
                    with tracing.installed(tr):
                        run_pass([case], tally, traced, tr, tag)
                else:
                    run_pass([case], tally, plain)
        durations.append(time.perf_counter() - t0)
        spans = tr.take()
        rounds.append(tracing.layer_metrics(spans))
        if first is None:
            first = tracing.span_records(spans)
        if not keep_going(started, seconds, durations):
            break
    metrics = tracing.median_metrics(rounds)
    traced_wall = sum(statistics.median(ts) for ts in traced.values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(statistics.median(ts) for ts in plain.values())
    info = {"rounds": len(rounds), "case_s": traced, "untraced_case_s": plain, "spans": first}
    return metrics, info


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "machine": platform.machine()}


def result_line(metrics, tally, names_units) -> dict:
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in names_units}}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in load()["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(load()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    make_setup = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    probe = [machine_probe()]
    if args.trace:
        metrics, info = measure_traced(make_setup, args.seconds, tally)
        section = "per_layer"
    else:
        metrics, info = measure(make_setup, args.seconds, tally)
        section = "end_to_end"
    probe.append(machine_probe())
    result = result_line(metrics, tally, [(m["name"], m["unit"]) for m in load()[section]])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "probe_s": probe,
              "failures": tally.failures, **info, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("spans", "result")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0
