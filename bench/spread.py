#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/spread.py --workloads all --seeds 0-9 --traced 2 --out A.json
    python3 bench/spread.py --workloads all --seeds 0-9 --against A.json --out B.json

Runs go one after another, each in a fresh process.  For every workload and
end-to-end metric it prints the median and the spread, the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  With ``--traced N`` it also
makes N traced runs per workload, on the first N seeds, and reports the
median of their ``trace.overhead_s``, the traced minus the untraced pass time
within a run.  ``--against`` compares each median with the one in an earlier
summary, as a share of it, next to the bound.  ``--out`` writes the summary,
with the environment and machine probe of the runs, as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.manifest import load  # noqa: E402


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    doc = load()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    ap.add_argument("--seconds", type=int, default=doc["run_seconds"])
    ap.add_argument("--against", default=None, help="earlier summary to compare medians with")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    names = [w["name"] for w in doc["workloads"]] if args.workloads == "all" \
        else args.workloads.split(",")
    seeds = seed_list(args.seeds)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs, traced, probes = [], [], []
        for i, seed in enumerate(seeds):
            info, result = run_once(name, seed, 0, args.seconds)
            runs.append(result)
            probes.extend(info["probe_s"])
            summary["environment"] = info["environment"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f"  failed {result['failed']}/{result['attempted']}"
                + f"  probe {info['probe_s'][0]:.3f}s", flush=True)
            if i < args.traced:
                traced.append(run_once(name, seed, 1, args.seconds)[1])
        out = {"attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "probe_s": statistics.median(probes), "metrics": {}}
        print(f"  machine probe median {out['probe_s']:.4f} s", flush=True)
        for m in doc["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            s["bound"] = m["bound"]
            line = (f"  {m['name']:12s} median {s['median']:.4g}  spread {s['spread']:.3f}"
                    f"  (bound {m['bound']}, target below {m['bound'] / 3:.3f})")
            if name in earlier:
                before = earlier[name]["metrics"][m["name"]]["median"]
                s["change"] = (s["median"] - before) / before
                if m["better"] == "higher":
                    s["change"] = -s["change"]
                line += f"  worse than earlier by {s['change']:+.3f}"
            out["metrics"][m["name"]] = s
            print(line, flush=True)
        if traced:
            overheads = [r["metrics"]["trace.overhead_s"]["value"] for r in traced]
            untraced = [r["metrics"]["trace.wall_s"]["value"] - o
                        for r, o in zip(traced, overheads)]
            out["trace_overhead_s"] = statistics.median(overheads)
            out["trace_overhead_frac"] = statistics.median(
                o / u for o, u in zip(overheads, untraced))
            out["traced_runs"] = len(traced)
            out["traced_attempted"] = sum(r["attempted"] for r in traced)
            out["traced_failed"] = sum(r["failed"] for r in traced)
            out["layers"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            print(f"  tracing overhead {out['trace_overhead_s']:+.3f} s "
                  f"({100 * out['trace_overhead_frac']:+.1f}% of the untraced pass), "
                  f"median of {len(traced)} traced runs", flush=True)
        summary["workloads"][name] = out
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
