#!/usr/bin/env python3
"""End-to-end test of the shipped `fuzzyjoin` and `fuzzyjoin_serve` binaries.

Two checks:

1. Transparent engine flags. `selfjoin` and `rsjoin` each run twice over
   small generated inputs: once with default flags, and once with every
   transparent engine flag away from its default (threads, sort buffer,
   merge factor, speculation, a recoverable crash-and-corrupt fault plan
   with --verify_integrity, binary records with the fjlz codec, contract
   checks, the skipped-record cap). The two `.joined` files must be
   byte-identical.
2. Count flags. A negative or non-numeric count is a usage error: exit
   status 2 with an InvalidArgument message naming the flag, never a
   signal.

Usage: cli_selftest.py <path/to/fuzzyjoin> <path/to/fuzzyjoin_serve>
Stdlib only; registered as the cli_selftest ctest target.
"""

import os
import subprocess
import sys
import tempfile

ENGINE_FLAGS = [
    "--threads=3",
    "--sort_buffer=2048",
    "--merge_factor=2",
    "--speculate",
    "--speculation_factor=2",
    "--max_attempts=4",
    "--fault_seed=7",
    "--fault_crash_p=0.3",
    "--fault_corrupt_p=0.3",
    "--verify_integrity",
    "--record_format=binary",
    "--codec=fjlz",
    "--check_contracts=1",
    "--contract_sample_every=3",
    "--max_skipped=0",
]

# (tool, arguments after the subcommand inputs, flag the message must name)
BAD_COUNTS = [
    ("fuzzyjoin", ["--threads=-1"], "--threads"),
    ("fuzzyjoin", ["--reduce_tasks=-1"], "--reduce_tasks"),
    ("fuzzyjoin", ["--threads=abc"], "--threads"),
    ("fuzzyjoin_serve", ["--threads=-1"], "--threads"),
]


def run(args, **kwargs):
    return subprocess.run(args, capture_output=True, text=True, timeout=300,
                          **kwargs)


def check(ok, what, failures):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    fuzzyjoin, serve = sys.argv[1], sys.argv[2]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        for name, args in [("r.tsv", ["--records=300", "--seed=5"]),
                           ("s.tsv", ["--records=300", "--seed=5",
                                      "--increase=2"])]:
            gen = run([fuzzyjoin, "generate", "--out=" + path(name)] + args)
            if gen.returncode != 0:
                print(gen.stderr)
                return 1

        joins = {
            "selfjoin": ["--input=" + path("r.tsv")],
            "rsjoin": ["--r=" + path("r.tsv"), "--s=" + path("s.tsv")],
        }
        for command, inputs in joins.items():
            outputs = []
            for label, flags in [("default", []), ("engine", ENGINE_FLAGS)]:
                out = path(f"{command}.{label}.joined")
                res = run([fuzzyjoin, command, *inputs, "--out=" + out,
                           *flags])
                check(res.returncode == 0, f"{command} {label} flags run",
                      failures)
                if res.returncode != 0:
                    print(res.stderr)
                    continue
                with open(out, "rb") as f:
                    outputs.append(f.read())
            if len(outputs) == 2:
                check(outputs[0].count(b"\n") > 0,
                      f"{command} finds joined pairs", failures)
                check(outputs[0] == outputs[1],
                      f"{command} output byte-identical under engine flags",
                      failures)

        for tool, flags, flag in BAD_COUNTS:
            if tool == "fuzzyjoin":
                args = [fuzzyjoin, "selfjoin", "--input=" + path("r.tsv"),
                        "--out=" + path("bad.joined"), *flags]
            else:
                args = [serve, *flags]
            res = run(args, stdin=subprocess.DEVNULL)
            check(res.returncode == 2 and "InvalidArgument" in res.stderr
                  and flag in res.stderr,
                  f"{tool} {' '.join(flags)} -> exit 2 naming {flag} "
                  f"(got {res.returncode}: {res.stderr.strip()})", failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
