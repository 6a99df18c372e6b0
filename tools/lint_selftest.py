#!/usr/bin/env python3
"""Self-test for tools/lint.py: seeded good/bad snippets per rule.

For each rule we materialize a tiny source tree in a temp directory, run
`lint.py --root <tree>`, and assert the rule fires on the bad snippet
(with the right rule tag) and stays quiet on the good one — including
the waiver-comment escape hatches. This is what keeps a new rule or a
waiver-syntax change from silently rotting: a regex edit that stops
matching fails here, in ctest, not months later in review.

Stdlib only; registered as the LintSelfTest ctest target.
"""

import os
import subprocess
import sys
import tempfile

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint.py")

# Each case: (name, {relative path: contents}, expected rule tag or None).
# Paths are relative to the corpus root; lint.py scans the same
# src/tools/bench/tests/examples roots it scans in the real repo.
CASES = [
    # pragma-once
    ("pragma_once_bad",
     {"src/x.h": "int F();\n"},
     "pragma-once"),
    ("pragma_once_good",
     {"src/x.h": "#pragma once\nint F();\n"},
     None),

    # banned-rand
    ("banned_rand_bad",
     {"src/x.cc": "int G() { return rand(); }\n"},
     "banned-rand"),
    ("banned_rand_good",
     {"src/x.cc": "int G(int r) { return my_rand(r); }\n"},
     None),

    # no-unordered-ppjoin (only bites under src/ppjoin/)
    ("unordered_ppjoin_bad",
     {"src/ppjoin/x.cc": "std::unordered_map<int, int> m;\n"},
     "no-unordered-ppjoin"),
    ("unordered_ppjoin_waived",
     {"src/ppjoin/x.cc":
      "#include <unordered_map>\n"
      "// lint: allow-unordered (cold path)\n"
      "std::unordered_map<int, int> m;\n"},
     None),
    ("unordered_outside_ppjoin_good",
     {"src/common/x.cc": "std::unordered_map<int, int> m;\n"
      "#include <unordered_map>\n"},
     None),

    # no-raw-thread
    ("raw_thread_bad",
     {"src/x.cc": "#include <thread>\nstd::thread t;\n"},
     "no-raw-thread"),
    ("raw_thread_waived",
     {"src/x.cc": "#include <thread>\n"
      "std::thread t;  // lint: allow-thread (test needs a bare thread)\n"},
     None),
    ("raw_thread_query_good",
     {"src/x.cc": "#include <thread>\n"
      "unsigned n = std::thread::hardware_concurrency();\n"},
     None),
    ("raw_thread_executor_exempt",
     {"src/common/executor.cc": "#include <thread>\nstd::thread t;\n"},
     None),

    # no-raw-file-io
    ("raw_file_io_bad",
     {"tests/x.cc": "std::ifstream in;\n"},
     "no-raw-file-io"),
    ("raw_file_io_waived",
     {"tests/x.cc":
      "// lint: allow-file-io (golden file fixture)\nstd::ifstream in;\n"},
     None),
    ("raw_file_io_dfs_exempt",
     {"src/mapreduce/dfs.cc": "std::ifstream in;\n"},
     None),
    ("raw_file_io_tools_exempt",
     {"tools/x.cc": "std::ifstream in;\n"},
     None),

    # no-raw-socket
    ("raw_socket_bad",
     {"src/x.cc": "int fd = socket(2, 1, 0);\n"},
     "no-raw-socket"),
    ("raw_socket_waived",
     {"src/x.cc":
      "int fd = socket(2, 1, 0);  // lint: allow-socket (probe)\n"},
     None),
    ("raw_socket_no_file_exempt",
     {"src/mapreduce/worker_net.cc": "int fd = socket(2, 1, 0);\n"},
     "no-raw-socket"),
    ("raw_socket_member_call_good",
     {"src/x.cc": "channel->send(frame);\n"},
     None),

    # no-naked-mutex
    ("naked_mutex_bad",
     {"src/x.cc": "#include <mutex>\nstd::mutex mu;\n"},
     "no-naked-mutex"),
    ("naked_condvar_bad",
     {"src/x.cc": "std::condition_variable cv;\n"},
     "no-naked-mutex"),
    ("naked_lock_guard_bad",
     {"src/x.cc":
      "#include <mutex>\nvoid F() { std::lock_guard<std::mutex> l(mu); }\n"},
     "no-naked-mutex"),
    ("naked_mutex_waived",
     {"src/x.cc": "#include <mutex>\n"
      "std::mutex mu;  // lint: allow-naked-mutex (ffi boundary)\n"},
     None),
    ("naked_mutex_preceding_waiver",
     {"src/x.cc": "#include <mutex>\n"
      "// lint: allow-naked-mutex (ffi boundary)\nstd::mutex mu;\n"},
     None),
    ("naked_mutex_sync_h_exempt",
     {"src/common/sync.h": "#pragma once\n#include <mutex>\n"
      "class Mutex { std::mutex mu_; };\n"},
     None),
    ("fj_mutex_good",
     {"src/x.cc": "fj::Mutex mu{\"x\"};\nvoid F() { fj::MutexLock l(&mu); }\n"},
     None),

    # iwyu-lite
    ("iwyu_bad",
     {"src/x.cc": "std::optional<int> v;\n"},
     "iwyu-lite"),
    ("iwyu_good",
     {"src/x.cc": "#include <optional>\nstd::optional<int> v;\n"},
     None),

    # nodiscard-status (only applies to trees carrying status.h/result.h)
    ("nodiscard_bad",
     {"src/common/status.h": "#pragma once\nclass Status {};\n",
      "src/common/result.h":
      "#pragma once\ntemplate <class T> class [[nodiscard]] Result {};\n"},
     "nodiscard-status"),
    ("nodiscard_good",
     {"src/common/status.h": "#pragma once\nclass [[nodiscard]] Status {};\n",
      "src/common/result.h":
      "#pragma once\ntemplate <class T> class [[nodiscard]] Result {};\n"},
     None),
]


def run_case(name, files, expected_rule):
    with tempfile.TemporaryDirectory(prefix=f"lint_selftest_{name}_") as root:
        for rel, contents in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        proc = subprocess.run(
            [sys.executable, LINT, "--root", root],
            capture_output=True, text=True, check=False)
        out = proc.stdout + proc.stderr
        if expected_rule is None:
            if proc.returncode != 0:
                return f"{name}: expected clean, got rc={proc.returncode}:\n{out}"
        else:
            if proc.returncode == 0:
                return f"{name}: expected [{expected_rule}] violation, got OK"
            if f"[{expected_rule}]" not in out:
                return (f"{name}: violation fired but not as "
                        f"[{expected_rule}]:\n{out}")
    return None


def main():
    failures = [f for f in (run_case(*case) for case in CASES) if f]
    for f in failures:
        print(f"FAIL {f}")
    print(f"lint_selftest: {len(CASES) - len(failures)}/{len(CASES)} cases "
          f"passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
