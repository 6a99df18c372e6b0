#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. Correctness gate: with --corrupt_every 2, every second batch output and
   every second sampled probe answer is corrupted before its check; the run
   must report correct=false, failed > 0 and success_rate < 1.
2. Layer attribution: rs_cite_spill traced with the sort buffer halved must
   show the extra work in the mapreduce layer (more spills, more spilled
   MB) while the ppjoin counts stay identical.
3. Standalone copy: BENCHMARK.json and perfbench/ alone, without the
   library sources, must fail without printing a result line.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 3


def run(workload, trace=0, root=ROOT, **extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", str(SECONDS),
           "--trace", str(trace)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def metric(result, name):
    return result["metrics"][name]["value"]


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    return ok


def correctness_gate():
    ok = True
    for workload in ("self_dblp", "serve_read"):
        _, clean = run(workload)
        ok &= check(clean is not None and clean["correct"] and clean["failed"] == 0
                    and metric(clean, "success_rate") == 1.0,
                    f"{workload}: clean run is correct, success_rate 1")
        _, bad = run(workload, corrupt_every=2)
        ok &= check(bad is not None and not bad["correct"] and bad["failed"] > 0
                    and metric(bad, "success_rate") < 1.0,
                    f"{workload}: corrupted outputs are caught "
                    f"(failed={bad and bad['failed']} of {bad and bad['attempted']})")
    return ok


def layer_attribution():
    _, full = run("rs_cite_spill", trace=1)
    _, half = run("rs_cite_spill", trace=1, sort_buffer_scale=0.5)
    if not check(full is not None and half is not None and full["correct"]
                 and half["correct"], "rs_cite_spill traced runs succeed"):
        return False
    ok = True
    for name in ("mapreduce.spill_count", "mapreduce.spilled_mb"):
        ok &= check(metric(half, name) > metric(full, name),
                    f"halved sort buffer raises {name}: "
                    f"{metric(full, name):.6g} -> {metric(half, name):.6g}")
    for name in ("ppjoin.candidates", "ppjoin.verified", "ppjoin.results"):
        ok &= check(metric(half, name) == metric(full, name),
                    f"{name} unchanged: {metric(full, name):.0f}")
    return ok


def standalone_copy_fails():
    copy = os.path.join(ROOT, ".bench_build", "selftest_standalone")
    shutil.rmtree(copy, ignore_errors=True)
    os.makedirs(copy)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
    shutil.copytree(HERE, os.path.join(copy, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run("self_dblp", root=copy)
    shutil.rmtree(copy, ignore_errors=True)
    return check(code != 0 and result is None,
                 f"copy without sources fails without a result (exit {code})")


def main():
    ok = correctness_gate()
    ok &= layer_attribution()
    ok &= standalone_copy_fails()
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
