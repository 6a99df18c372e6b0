#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload self_dblp --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The build goes to .bench_build/perfbench
(CMake, RelWithDebInfo, only the library sources and the benchmark program).
The program's last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A traced run also writes its spans to
.bench_build/traces/<workload>-<seed>.json (Chrome trace-event format).
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("self_dblp", "rs_cite_spill", "serve_read", "serve_churn")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sort_buffer_scale", type=float, default=1.0,
                        help="multiplies rs_cite_spill's sort buffer")
    parser.add_argument("--corrupt_every", type=int, default=0,
                        help="corrupt every Nth output before it is checked")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sort_buffer_scale", str(args.sort_buffer_scale),
           "--corrupt_every", str(args.corrupt_every)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace_file",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
