#!/usr/bin/env python3
"""End-to-end test of the shipped `fuzzyjoin` and `fuzzyjoin_serve` binaries.

Eight checks:

1. Transparent engine flags. `selfjoin` and `rsjoin` each run twice over
   small generated inputs: once with default flags, and once with every
   transparent engine flag away from its default (threads, sort buffer,
   merge factor, speculation, a recoverable crash, straggler and corrupt
   fault plan with --verify_integrity, the fjlz codec, contract checks,
   the skipped-record cap). The two `.joined` files must be
   byte-identical.
2. Resume from a state directory. `rsjoin` with the fjlz codec runs into
   --dfs_dir, then again with --resume: all three stages resume from
   their checkpoints, the two `.joined` files are byte-identical, and
   every file in the directory is newline-terminated UTF-8 text (a run
   block would carry bytes UTF-8 never uses).
3. The paper's algorithm flags, and the codec and the map-task count on
   their own. `selfjoin` and `rsjoin` run with --stage1=opto,
   --stage2=bk, --stage3=brj, --routing=grouped --groups=7, --codec=fjlz
   and --map_tasks=3. Each run names its stage in --stats and joins the
   same set of lines as the default run.
4. Refused flags. A negative or non-numeric count, a misspelled flag, a
   malformed number, an unknown algorithm or codec, an out-of-range
   --tau_floor, a retired flag, and an index setting next to --snapshot_in
   are usage errors: exit status 2 with an InvalidArgument message naming
   the flag, never a signal.
5. A snapshot saved with --tau_floor=0.7 reloads announcing its own floor
   (tau_floor=0.70), not the flag default.
6. A crafted snapshot whose record declares 2^62 tokens makes
   `fuzzyjoin_serve --snapshot_in` fail with DataLoss, never a signal.
7. --stats prints measurements and counts, never a cluster-model price:
   a default `selfjoin` and one with the fjlz codec, contract checks and
   a crash plan both print no "simulated", and the second prints its
   format, contracts and fault-tolerance lines.
8. Flags that change what is joined. --tau=0.9 joins a non-empty proper
   subset of the default run's lines, for both joins; `generate
   --kind=citeseerx`, `selfjoin --qgram=3` and `editjoin --distance=2`
   exit 0 and write lines.

Usage: cli_selftest.py <path/to/fuzzyjoin> <path/to/fuzzyjoin_serve>
Stdlib only; registered as the cli_selftest ctest target.
"""

import os
import struct
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
    "--fault_straggler_p=0.3",
    "--fault_corrupt_p=0.3",
    "--verify_integrity",
    "--codec=fjlz",
    "--check_contracts=1",
    "--contract_sample_every=3",
    "--max_skipped=0",
]

# (flags, the stage its --stats must name or None)
ALGORITHM_FLAGS = [
    (["--stage1=opto"], "1-OPTO"),
    (["--stage2=bk"], "2-BK"),
    (["--stage3=brj"], "3-BRJ"),
    (["--routing=grouped", "--groups=7"], None),
    (["--codec=fjlz"], None),
    (["--map_tasks=3"], None),
]

# (flags, lines its --stats must print)
STATS_RUNS = [
    ([], []),
    (["--codec=fjlz", "--check_contracts=1", "--max_attempts=4",
      "--fault_seed=7", "--fault_crash_p=0.3"],
     ["format:", "contracts:", "fault tolerance:"]),
]

# (tool, arguments after the subcommand inputs, text naming the flag that
# the message must contain)
BAD_FLAGS = [
    ("fuzzyjoin", ["--threads=-1"], "--threads"),
    ("fuzzyjoin", ["--reduce_tasks=-1"], "--reduce_tasks"),
    ("fuzzyjoin", ["--threads=abc"], "--threads"),
    ("fuzzyjoin", ["--thraeds=4"], "--thraeds"),
    ("fuzzyjoin", ["--fault_crash_p=abc"], "--fault_crash_p"),
    ("fuzzyjoin", ["--fault_seed=xyz", "--fault_crash_p=0.2"],
     "--fault_seed"),
    ("fuzzyjoin", ["--check_contracts=yes"], "--check_contracts"),
    ("fuzzyjoin", ["--stage1=xyz"], "--stage1"),
    ("fuzzyjoin", ["--routing=xyz"], "--routing"),
    ("fuzzyjoin", ["--codec=zstd"], "--codec"),
    ("fuzzyjoin", ["--function=xyz"], "unknown --function: xyz"),
    # Options the tool does not have: the shuffle is the engine's
    # in-process hand-off, with no transport or wire faults to configure.
    ("fuzzyjoin", ["--transport=socket"], "unknown flag --transport"),
    ("fuzzyjoin", ["--shuffle_workers=2"], "unknown flag --shuffle_workers"),
    ("fuzzyjoin", ["--spawn_worker_processes"],
     "unknown flag --spawn_worker_processes"),
    ("fuzzyjoin", ["--net_drop_p=0.1"], "unknown flag --net_drop_p"),
    # Every spill run is a run block: there is no record format to pick.
    ("fuzzyjoin", ["--record_format=binary"],
     "unknown flag --record_format"),
    # A straggler's slowdown and the attempts a drawn corruption hits are
    # FaultPlan's defaults, with no flag.
    ("fuzzyjoin", ["--fault_slowdown=8"], "unknown flag --fault_slowdown"),
    ("fuzzyjoin", ["--fault_corrupt_attempts=1"],
     "unknown flag --fault_corrupt_attempts"),
    ("fuzzyjoin_serve", ["--threads=-1"], "--threads"),
    ("fuzzyjoin_serve", ["--tau_floor=abc"], "--tau_floor"),
    ("fuzzyjoin_serve", ["--tau_floor=0"], "--tau_floor"),
    ("fuzzyjoin_serve", ["--lsh"], "--lsh"),
    ("fuzzyjoin_serve", ["--function=xyz"], "unknown --function: xyz"),
] + [
    # A snapshot supplies these; the refusal precedes reading the file.
    ("fuzzyjoin_serve", ["--snapshot_in=index.snapshot", flag],
     flag.split("=")[0])
    for flag in ["--tau_floor=0.6", "--function=cosine",
                 "--compact_fraction=0.5", "--load=r.tsv",
                 "--ordering=tokens.tsv"]
]


def varint(value):
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def crafted_snapshot():
    """A snapshot file (magic, then varint-framed blocks) whose one record
    declares 2^62 tokens but holds three one-byte deltas."""
    bits = lambda x: struct.unpack("<Q", struct.pack("<d", x))[0]
    header = (b"FJSV2" + varint(0) + varint(bits(0.5)) + varint(bits(0.25))
              + varint(1))
    record = varint(1) + varint(1 << 62) + b"\x01\x01\x01"
    blocks = [header, b"", record]
    return b"FJSN" + b"".join(varint(len(b)) + b for b in blocks)


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
            if not outputs:
                continue
            default_lines = set(outputs[0].splitlines())
            for flags, stage in ALGORITHM_FLAGS:
                out = path(f"{command}.algorithm.joined")
                res = run([fuzzyjoin, command, *inputs, "--out=" + out,
                           "--stats", *flags])
                what = f"{command} {' '.join(flags)}"
                check(res.returncode == 0, f"{what} run", failures)
                if res.returncode != 0:
                    print(res.stderr)
                    continue
                if stage:
                    check(stage in res.stderr,
                          f"{what} --stats names stage {stage}", failures)
                with open(out, "rb") as f:
                    check(set(f.read().splitlines()) == default_lines,
                          f"{what} joins the default run's lines", failures)
            out = path(f"{command}.tau.joined")
            res = run([fuzzyjoin, command, *inputs, "--out=" + out,
                       "--tau=0.9"])
            check(res.returncode == 0, f"{command} --tau=0.9 run", failures)
            if res.returncode == 0:
                with open(out, "rb") as f:
                    lines = set(f.read().splitlines())
                check(bool(lines) and lines < default_lines,
                      f"{command} --tau=0.9 joins a proper subset of the "
                      f"default run's lines ({len(lines)} of "
                      f"{len(default_lines)})", failures)
            else:
                print(res.stderr)

        state = path("state")
        resume_flags = ["--r=" + path("r.tsv"), "--s=" + path("s.tsv"),
                        "--codec=fjlz", "--dfs_dir=" + state]
        outputs = []
        for label, extra in [("first", []), ("resumed", ["--resume",
                                                         "--stats"])]:
            out = path(f"resume.{label}.joined")
            res = run([fuzzyjoin, "rsjoin", *resume_flags, "--out=" + out,
                       *extra])
            check(res.returncode == 0, f"rsjoin --dfs_dir {label} run",
                  failures)
            if res.returncode != 0:
                print(res.stderr)
                continue
            with open(out, "rb") as f:
                outputs.append(f.read())
            if label == "resumed":
                resumed = res.stderr.count("resumed from checkpoint")
                check(resumed == 3,
                      f"rsjoin --resume resumes all 3 stages (got {resumed})",
                      failures)
        if len(outputs) == 2:
            check(outputs[0] == outputs[1],
                  "rsjoin output byte-identical after --resume", failures)
        if os.path.isdir(state):
            not_text = []
            for name in sorted(os.listdir(state)):
                with open(os.path.join(state, name), "rb") as f:
                    data = f.read()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError:
                    not_text.append(name)
                    continue
                if data and not data.endswith(b"\n"):
                    not_text.append(name)
            check(not not_text,
                  f"every state file is text lines (not: {not_text})",
                  failures)

        for flags, lines in STATS_RUNS:
            res = run([fuzzyjoin, "selfjoin", "--input=" + path("r.tsv"),
                       "--out=" + path("stats.joined"), "--stats", *flags])
            what = f"selfjoin --stats {' '.join(flags)}".rstrip()
            check(res.returncode == 0
                  and all(line in res.stderr for line in lines)
                  and "simulated" not in res.stderr,
                  f"{what} prints {lines} and no simulated price", failures)
            if res.returncode != 0:
                print(res.stderr)

        for command, flag, args in [
                ("generate", "--kind=citeseerx", ["--records=300"]),
                ("selfjoin", "--qgram=3", ["--input=" + path("r.tsv")]),
                ("editjoin", "--distance=2", ["--input=" + path("r.tsv")])]:
            out = path(f"{command}.out")
            res = run([fuzzyjoin, command, *args, "--out=" + out, flag])
            lines = 0
            if res.returncode == 0:
                with open(out, "rb") as f:
                    lines = f.read().count(b"\n")
            else:
                print(res.stderr)
            check(res.returncode == 0 and lines > 0,
                  f"{command} {flag} exits 0 and writes lines (got {lines})",
                  failures)

        for tool, flags, flag in BAD_FLAGS:
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

        snapshot = path("floor.snapshot")
        saved = run([serve, "--load=" + path("r.tsv"), "--tau_floor=0.7",
                     "--snapshot_out=" + snapshot], stdin=subprocess.DEVNULL)
        loaded = run([serve, "--snapshot_in=" + snapshot],
                     stdin=subprocess.DEVNULL)
        check(saved.returncode == 0 and loaded.returncode == 0
              and "tau_floor=0.70" in loaded.stderr,
              f"snapshot saved at tau_floor=0.7 reloads announcing it "
              f"(got {loaded.returncode}: {loaded.stderr.strip()})", failures)

        snapshot = path("crafted.snapshot")
        with open(snapshot, "wb") as f:
            f.write(crafted_snapshot())
        res = run([serve, "--snapshot_in=" + snapshot],
                  stdin=subprocess.DEVNULL)
        check(res.returncode > 0 and "DataLoss" in res.stderr,
              f"crafted snapshot -> DataLoss, no signal "
              f"(got {res.returncode}: {res.stderr.strip()})", failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
