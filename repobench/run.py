#!/usr/bin/env python3
"""Entry point of the repository benchmark: build, run one workload, print its result.

    python3 repobench/run.py --workload hybrid --seed 1 --seconds 45 --trace 0

Run from the repository root. The first call configures and builds the
benchmark package (repobench/CMakeLists.txt, which compiles ../src and
../examples/dpserved.cpp) into .bench_build/repobench; later calls only
re-run the incremental build. Build output goes to stderr, so the last
line of stdout is the workload's JSON result. A run whose outputs fail a
check ends with {"correct": false, ..., "metrics": {}} and exits 1; a
failed build, a crash, or metric names that disagree with BENCHMARK.json
exit 1 with no result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "repobench")
RUN_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("sa_dp", "hybrid", "ndetect", "served")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. Returns the binary directory."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without one."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except FileNotFoundError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--rate", type=int, default=None,
                        help="served only: offered req/s instead of the fixed rate; "
                             "0 drives closed loop to measure saturation (see README.md)")
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        bin_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)

    command = [
        os.path.join(bin_dir, "repobench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference.json"),
        "--server", os.path.join(bin_dir, "dpserved"),
        "--out-dir", RUN_DIR,
    ]
    if args.rate is not None:
        command += ["--rate", str(args.rate)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        print(f"run.py: {args.workload} failed (exit {run.returncode})", file=sys.stderr)
        if lines[-1].startswith('{"correct":false'):
            print(lines[-1])
        return 1
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("run.py: metric names disagree with BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
