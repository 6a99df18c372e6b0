#!/usr/bin/env python3
"""Steadiness report: runs the benchmark over several seeds per workload and
prints, for every end-to-end metric, the median and the quartile spread
(q3 - q1) / median across runs, flagging any spread above the metric's bound
in BENCHMARK.json ("OVER") or above a third of it ("warn").

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --workloads serve_read --seeds 5
    python3 perfbench/steady.py --traced             # also tracing overhead
    python3 perfbench/steady.py --save a.json        # keep the raw results
    python3 perfbench/steady.py --compare a.json     # medians vs a saved set

--traced adds one traced run per seed and reports the tracing overhead:
the traced run's trace.op_p50_ms against the untraced op_p50_ms.
--compare flags a metric whose median is worse than the saved set's by
more than its bound. Exits 1 when any run fails or any flag is raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--save", help="write the raw results here")
    parser.add_argument("--compare", help="raw results of an earlier set")
    args = parser.parse_args()

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    raw = {w: {"untraced": [], "traced": []} for w in args.workloads}
    failed = False
    for seed in seeds:  # seed-major, so slow drift of the host hits all alike
        for w in args.workloads:
            for kind in (("untraced", 0), ("traced", 1))[: 2 if args.traced else 1]:
                result = run(w, seed, args.seconds, kind[1])
                ok = result is not None and result["correct"]
                print(f"  {w:14s} seed {seed:3d} {kind[0]:8s} "
                      f"{'ok' if ok else 'FAILED'}", file=sys.stderr, flush=True)
                if not ok:
                    failed = True
                    continue
                raw[w][kind[0]].append(result)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f)
    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    flagged = False
    print(f"{'workload':14s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  flag")
    for w in args.workloads:
        runs = raw[w]["untraced"]
        if len(runs) < 2:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            flag = "OVER" if s > bound else "warn" if s > bound / 3 else ""
            if previous and previous.get(w, {}).get("untraced"):
                old = statistics.median(r["metrics"][name]["value"]
                                        for r in previous[w]["untraced"])
                worse = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                if worse > bound:
                    flag += f" WORSE {worse:+.1%} vs saved"
            flagged |= "OVER" in flag or "WORSE" in flag
            print(f"{w:14s} {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.2%} {bound:6.2f}  {flag}")
        traced = raw[w]["traced"]
        if traced:
            on = statistics.median(r["metrics"]["trace.op_p50_ms"]["value"] for r in traced)
            off = statistics.median(r["metrics"]["op_p50_ms"]["value"] for r in runs)
            print(f"{w:14s} tracing overhead on op_p50_ms: {on:.6g} ms traced vs "
                  f"{off:.6g} ms untraced ({(on - off) / off:+.1%})")
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
