#!/usr/bin/env python3
"""Steadiness self-check: run workloads over several seeds and report each metric's spread.

    python3 repobench/steady.py --workloads sa_dp,served --seeds 1-10
    python3 repobench/steady.py --workloads ndetect --seeds 1-5 --trace
    python3 repobench/steady.py --seeds 1-10 --sets 2

For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. A spread above the bound fails
the check; a spread above a third of the bound is flagged as "above
target", the margin the bounds are meant to keep. setup_s's spread is
reported but not held to either.

--sets N repeats the whole set of seeds N times, one set after the other,
and fails when a later set's median is worse than the first set's by more
than the bound (setup_s included): two sets of runs of the same code must
agree within the benchmark's own bounds.

--trace runs each seed traced right after its untraced run, so both see
the same state of the host. It prints the per-layer medians and the
tracing overhead: the median over seeds of traced / untraced - 1, on
run_s, or on op_p50_ms for served, whose run_s the offered rate fixes.
The first seed then runs traced once more, and the deterministic counts
must repeat exactly.

Results are also written to .bench_build/steady/<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Counts that must repeat exactly for a fixed seed.
DETERMINISTIC = ("fault.count", "dp.gates_evaluated", "sim.events",
                 "ndetect.minted_vectors", "ndetect.detections")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"steady.py: {workload} seed {seed} trace {trace} failed")
    result = json.loads(out.stdout.strip().split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sa_dp,hybrid,ndetect,served")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = seeds_of(args.seeds)
    os.makedirs(os.path.join(ROOT, ".bench_build", "steady"), exist_ok=True)
    held = True
    above_target = []

    for workload in args.workloads.split(","):
        sets, traced = [], []
        started = time.monotonic()
        for set_index in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run(workload, seed, seconds, 0))
                if args.trace and set_index == 0:
                    traced.append(run(workload, seed, seconds, 1))
            sets.append(runs)
        report = {"workload": workload, "seeds": seeds, "seconds": seconds,
                  "sets": sets, "end_to_end": []}
        runs_made = len(seeds) * (args.sets + (1 if args.trace else 0))
        print(f"== {workload}: {len(seeds)} seeds x {args.sets} set(s), {seconds} s each, "
              f"{(time.monotonic() - started) / runs_made:.1f} s of wall time per run")
        for set_index, runs in enumerate(sets):
            summary = {}
            print(f"  set {set_index + 1}")
            print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
                  f"{'bound':>7}{'vs set 1':>10}")
            for name, m in metrics.items():
                s = summarize([r[name] for r in runs])
                summary[name] = s
                note = ""
                if name != "setup_s" and s["spread"] > m["bound"]:
                    held, note = False, "  <-- spread above bound"
                elif name != "setup_s" and s["spread"] > m["bound"] / 3:
                    note = "  (above target bound/3)"
                    above_target.append(f"{workload} {name} set {set_index + 1}")
                drift = ""
                if set_index > 0:
                    w = worse_by(report["end_to_end"][0][name]["median"], s["median"],
                                 m["better"])
                    s["worse_than_set1"] = w
                    drift = f"{w:>+10.3f}"
                    if w > m["bound"]:
                        held, note = False, note + "  <-- median worse than set 1 by more than bound"
                print(f"  {name:<14}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                      f"{s['spread']:>9.4f}{m['bound']:>7}{drift:>10}{note}")
            report["end_to_end"].append(summary)
        if args.trace:
            again = run(workload, seeds[0], seconds, 1)
            for name in DETERMINISTIC:
                if traced[0][name] != again[name]:
                    held = False
                    print(f"  {name} did not repeat: {traced[0][name]} vs {again[name]}")
            basis = "op_p50_ms" if workload == "served" else "run_s"
            overhead = statistics.median(
                t["trace." + basis] / u[basis] - 1.0 for t, u in zip(traced, sets[0]))
            report["per_layer"] = {k: statistics.median(r[k] for r in traced) for k in traced[0]}
            report["trace_overhead"] = {"basis": basis, "overhead": overhead}
            for k, v in report["per_layer"].items():
                print(f"  {k:<26}{v:>14.6g}")
            print(f"  tracing overhead (median of per-seed traced/untraced {basis}): "
                  f"{overhead:+.2%}")
        with open(os.path.join(ROOT, ".bench_build", "steady", f"{workload}.json"), "w") as f:
            json.dump(report, f, indent=1)

    if above_target:
        print("above target (spread > bound/3): " + ", ".join(above_target))
    print("steady: every spread within its bound" + (" and every set agrees" if args.sets > 1 else "")
          if held else "NOT steady")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
