#!/usr/bin/env python3
"""Repo-local lint: mechanical hygiene rules clang-tidy doesn't cover.

Run from anywhere: paths resolve relative to the repo root (this file's
parent directory) unless --root points elsewhere (the self-test corpus
uses that). Exits non-zero with one `path:line: [rule] message` per
violation. Stdlib only — runs in CI before the clang-tidy job and
locally as `python3 tools/lint.py`.

Every run ends with a per-rule activity summary (sites the rule's
pattern matched, before waivers and exemptions) so a rule that matches
zero files — a dead rule whose pattern rotted — is visible in CI logs.

Rules:
  pragma-once      every header under src/tools/bench/tests/examples uses
                   #pragma once (the tree's include-guard idiom).
  banned-rand      libc rand() is banned everywhere: it is a process-global
                   PRNG, so two interleaved tasks perturb each other's
                   streams and break the engine's determinism contract.
                   Use common/hash.h's HashInt64 / a seeded <random> engine.
  no-unordered-ppjoin
                   std::unordered_map/set are banned in src/ppjoin (the
                   kernel hot path): iteration order is unspecified (feeds
                   nondeterminism into candidate order) and probes chase
                   cache-hostile buckets — use the dense_index_ idiom.
                   Cold paths may waive with a trailing or preceding
                   `lint: allow-unordered (<reason>)` comment.
  no-raw-thread    spawning std::thread directly is banned outside
                   src/common/executor.{h,cc}: ad-hoc threads bypass the
                   work-stealing executor (no stats, no per-worker scratch
                   identity, unbounded oversubscription). Querying
                   std::thread::hardware_concurrency and std::this_thread
                   are fine. Waive deliberate uses (e.g. a test that needs
                   a bare thread) with a trailing or preceding
                   `lint: allow-thread (<reason>)` comment.
  no-raw-file-io   std::ifstream/std::ofstream/std::fstream/fopen are
                   banned in src/ and tests/ outside src/mapreduce/dfs.cc:
                   every byte the engine reads or writes must flow through
                   the Dfs so checksums, byte meters, and the binary block
                   framing see it (a raw stream bypasses all three).
                   bench/ and tools/ are exempt (host-side artifact I/O).
                   Waive deliberate uses with a trailing or preceding
                   `lint: allow-file-io (<reason>)` comment.
  no-raw-socket    raw POSIX socket calls (socket/connect/bind/listen/
                   accept/recv/send/setsockopt/...) are banned everywhere:
                   the engine's shuffle is an in-process hand-off whose
                   bytes are counted and priced by the cluster model, and
                   an ad-hoc socket path would move data past the
                   engine's byte meters, checksums and determinism
                   contract. Waive a deliberate use with a trailing or
                   preceding `lint: allow-socket (<reason>)` comment.
  no-naked-mutex   std::mutex / std::condition_variable / std::lock_guard
                   (and friends) are banned outside src/common/sync.h:
                   fj::Mutex carries the Clang thread-safety capability
                   annotations and the debug lock-rank deadlock detector,
                   and a naked std primitive is invisible to both. Use
                   fj::Mutex / fj::MutexLock / fj::CondVar (common/sync.h)
                   or waive deliberate uses with a trailing or preceding
                   `lint: allow-naked-mutex (<reason>)` comment.
  nodiscard-status Status and Result must stay class-level [[nodiscard]]
                   so dropped errors are compile errors under -Werror.
  iwyu-lite        a file that names selected std:: symbols must include
                   the owning header itself, not lean on transitive
                   includes (the symbols below broke builds on libstdc++
                   upgrades before; the list is deliberately small).
"""

import argparse
import os
import re
import sys

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ("src", "tools", "bench", "tests", "examples")

RULES = (
    "pragma-once",
    "banned-rand",
    "no-unordered-ppjoin",
    "no-raw-thread",
    "no-raw-file-io",
    "no-raw-socket",
    "no-naked-mutex",
    "nodiscard-status",
    "iwyu-lite",
)

# iwyu-lite: std symbol pattern -> required include. Only symbols whose
# home header is unambiguous and commonly reached transitively.
IWYU_SYMBOLS = [
    (re.compile(r"\bstd::(?:stable_)?sort\b"), "<algorithm>"),
    (re.compile(r"\bstd::nth_element\b"), "<algorithm>"),
    (re.compile(r"\bstd::unordered_map\b"), "<unordered_map>"),
    (re.compile(r"\bstd::unordered_set\b"), "<unordered_set>"),
    (re.compile(r"\bstd::optional\b"), "<optional>"),
    (re.compile(r"\bstd::variant\b"), "<variant>"),
    (re.compile(r"\bstd::mutex\b"), "<mutex>"),
    (re.compile(r"\bstd::thread\b"), "<thread>"),
    (re.compile(r"\bstd::function\b"), "<functional>"),
    (re.compile(r"\bstd::snprintf\b"), "<cstdio>"),
]

RAND_RE = re.compile(r"(?<![\w.])rand\s*\(")
UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
WAIVER = "lint: allow-unordered"

# no-raw-thread: a std::thread being constructed or declared (spawning /
# owning), as opposed to static queries like hardware_concurrency or the
# std::this_thread namespace.
RAW_THREAD_RE = re.compile(r"\bstd::thread\b(?!\s*::)")
THREAD_WAIVER = "lint: allow-thread"
EXECUTOR_FILES = (
    os.path.join("src", "common", "executor.h"),
    os.path.join("src", "common", "executor.cc"),
)

# no-raw-socket: raw POSIX socket syscalls, banned in every file. The
# pattern requires a call (trailing "(") and rejects qualified/member names
# (channel->send, net::connect).
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.:>])(?:socket|socketpair|connect|bind|listen|accept4?|"
    r"recv(?:from|msg)?|send(?:to|msg)?|[gs]etsockopt|getsockname|"
    r"getpeername|shutdown)\s*\(")
SOCKET_WAIVER = "lint: allow-socket"

# no-raw-file-io: direct file streams / FILE* opens. Only the Dfs (and the
# host-side bench/ and tools/ trees) may touch real files.
RAW_FILE_IO_RE = re.compile(r"\bstd::[io]?fstream\b|(?<![\w.])fopen\s*\(")
FILE_IO_WAIVER = "lint: allow-file-io"
FILE_IO_EXEMPT_FILES = (os.path.join("src", "mapreduce", "dfs.cc"),)
FILE_IO_EXEMPT_DIRS = (
    os.sep + "bench" + os.sep,
    os.sep + "tools" + os.sep,
)

# no-naked-mutex: std synchronization primitives outside the annotated
# capability layer. fj::Mutex (common/sync.h) is the only place allowed to
# name them — it wraps them with thread-safety annotations and the debug
# lock-rank detector, both of which a naked primitive bypasses.
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_(?:timed_)?mutex|shared_mutex|"
    r"shared_timed_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b")
MUTEX_WAIVER = "lint: allow-naked-mutex"
MUTEX_EXEMPT_FILES = (os.path.join("src", "common", "sync.h"),)


def source_files(root):
    for d in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    yield os.path.join(dirpath, name)


def strip_comments_and_strings(line):
    """Coarse: drop // comments and the contents of "..." literals."""
    line = re.sub(r'"(?:\\.|[^"\\])*"', '""', line)
    return line.split("//", 1)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=DEFAULT_ROOT,
        help="tree to lint (default: the repo root; the lint self-test "
             "points this at snippet corpora)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    problems = []
    # rule -> sites its pattern matched, counted BEFORE waivers and
    # exemptions: a live rule shows nonzero here even on a clean tree.
    activity = {rule: 0 for rule in RULES}

    def report(path, lineno, rule, msg):
        rel = os.path.relpath(path, root)
        problems.append(f"{rel}:{lineno}: [{rule}] {msg}")

    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        is_header = path.endswith(".h")
        in_ppjoin = os.sep + os.path.join("src", "ppjoin") + os.sep in path

        if is_header:
            activity["pragma-once"] += 1  # headers checked
            if not any(l.startswith("#pragma once") for l in lines):
                report(path, 1, "pragma-once", "header missing '#pragma once'")

        needed = {}  # include -> first (lineno, symbol) needing it
        includes = set()
        for lineno, raw in enumerate(lines, 1):
            stripped = raw.strip()
            if stripped.startswith("#include"):
                m = re.search(r"[<\"]([^>\"]+)[>\"]", stripped)
                if m:
                    includes.add("<%s>" % m.group(1))
                continue
            code = strip_comments_and_strings(raw)
            prev = lines[lineno - 2] if lineno >= 2 else ""

            if RAND_RE.search(code):
                activity["banned-rand"] += 1
                report(path, lineno, "banned-rand",
                       "libc rand() breaks task determinism; use "
                       "common/hash.h or a seeded <random> engine")

            if RAW_THREAD_RE.search(code):
                activity["no-raw-thread"] += 1
                if not path.endswith(EXECUTOR_FILES) and \
                        THREAD_WAIVER not in raw and THREAD_WAIVER not in prev:
                    report(path, lineno, "no-raw-thread",
                           "spawn tasks on the common/executor.h Executor "
                           "instead of a raw std::thread; waive deliberate "
                           "uses with '// %s (<reason>)'" % THREAD_WAIVER)

            if RAW_SOCKET_RE.search(code):
                activity["no-raw-socket"] += 1
                if SOCKET_WAIVER not in raw and SOCKET_WAIVER not in prev:
                    report(path, lineno, "no-raw-socket",
                           "raw sockets move bytes past the engine's "
                           "meters and checksums; waive a deliberate use "
                           "with '// %s (<reason>)'" % SOCKET_WAIVER)

            if RAW_FILE_IO_RE.search(code):
                activity["no-raw-file-io"] += 1
                file_io_exempt = (path.endswith(FILE_IO_EXEMPT_FILES) or
                                  any(d in path for d in FILE_IO_EXEMPT_DIRS))
                if not file_io_exempt and \
                        FILE_IO_WAIVER not in raw and FILE_IO_WAIVER not in prev:
                    report(path, lineno, "no-raw-file-io",
                           "raw file I/O bypasses the Dfs (checksums, byte "
                           "meters, block framing); route through "
                           "mapreduce/dfs.h or waive with "
                           "'// %s (<reason>)'" % FILE_IO_WAIVER)

            if NAKED_MUTEX_RE.search(code):
                activity["no-naked-mutex"] += 1
                if not path.endswith(MUTEX_EXEMPT_FILES) and \
                        MUTEX_WAIVER not in raw and MUTEX_WAIVER not in prev:
                    report(path, lineno, "no-naked-mutex",
                           "naked std sync primitives bypass the thread-"
                           "safety annotations and the lock-rank detector; "
                           "use fj::Mutex / fj::MutexLock / fj::CondVar "
                           "(common/sync.h) or waive with "
                           "'// %s (<reason>)'" % MUTEX_WAIVER)

            if UNORDERED_RE.search(code):
                activity["no-unordered-ppjoin"] += 1
                if in_ppjoin and WAIVER not in raw and WAIVER not in prev:
                    report(path, lineno, "no-unordered-ppjoin",
                           "unordered containers are banned in the ppjoin "
                           "hot path; waive cold paths with "
                           "'// %s (<reason>)'" % WAIVER)

            for pattern, include in IWYU_SYMBOLS:
                m = pattern.search(code)
                if m and include not in needed:
                    needed[include] = (lineno, m.group(0))
        activity["iwyu-lite"] += len(needed)
        for include, (lineno, symbol) in sorted(needed.items()):
            if include not in includes:
                report(path, lineno, "iwyu-lite",
                       f"uses {symbol} but does not include {include}")

    for rel, cls in (("src/common/status.h", "class [[nodiscard]] Status"),
                     ("src/common/result.h", "class [[nodiscard]] Result")):
        path = os.path.join(root, rel)
        # Snippet corpora (--root) don't carry status.h/result.h; the rule
        # only applies to trees that do.
        if not os.path.exists(path):
            continue
        activity["nodiscard-status"] += 1
        with open(path, encoding="utf-8") as f:
            if cls not in f.read():
                report(path, 1, "nodiscard-status",
                       f"expected '{cls}' — dropped errors must not compile")

    if problems:
        print("\n".join(problems))
    print("lint.py rule activity (matches before waivers/exemptions):")
    for rule in RULES:
        flag = "" if activity[rule] else "   <-- DEAD RULE? zero matches"
        print(f"  {rule:<20} {activity[rule]:>5}{flag}")
    if problems:
        print(f"\nlint.py: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("lint.py: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
