#!/usr/bin/env python3
"""Self-test for tools/baffle_lint.py.

Runs the linter over the committed fixture tree (one seeded violation
per rule) and asserts that it exits non-zero and names every offending
file with the right rule id. Run directly or via ctest:

    python3 tests/tools/baffle_lint_test.py
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(REPO, "tools", "baffle_lint.py")
FIXTURE = os.path.join(HERE, "lint_fixture")

EXPECTED = [
    # (rule, path substring that must appear on the same line)
    ("no-iostream", "bad_iostream.cpp"),
    ("no-naked-new", "bad_new.cpp"),
    ("no-libc-random", "bad_rand.cpp"),
    ("raw-sync", "bad_mutex.cpp"),
    ("env-knob", "bad_env.cpp"),
    ("header-hygiene", "bad_header.hpp"),
    ("dispatch-table", "kernels_simd.cpp"),   # zorp: no SIMD impl
    ("dispatch-table", "simd_parity_test.cpp"),  # zorp: no parity test
]

CLEAN = [
    # (rule, path substring) pairs that must NOT be reported
    ("no-iostream", "kernels_scalar.cpp"),
    ("dispatch-table", "frob_rows"),
    # bad_env.cpp:8 reads BAFFLE_THREADS, which is on the allow-list.
    ("env-knob", "bad_env.cpp:8"),
    # The sanctioned wrapper layer is exempt (matched on the full
    # fixture path: the rule's advice text also mentions sync.hpp).
    ("raw-sync", os.path.join("src", "util", "sync.hpp")),
]


def main() -> int:
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", FIXTURE],
        capture_output=True, text=True)
    failures = []

    if proc.returncode != 1:
        failures.append(
            f"expected exit 1 on the seeded fixture, got {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")

    lines = proc.stdout.splitlines()
    for rule, path in EXPECTED:
        if not any(f"[{rule}]" in ln and path in ln for ln in lines):
            failures.append(
                f"missing finding: rule [{rule}] naming {path}")
    for rule, path in CLEAN:
        if any(f"[{rule}]" in ln and path in ln for ln in lines):
            failures.append(
                f"false positive: rule [{rule}] flagged {path}")

    if failures:
        print("baffle_lint_test: FAIL")
        for f in failures:
            print("  -", f)
        print("linter output was:")
        print(proc.stdout)
        return 1
    print(f"baffle_lint_test: PASS ({len(EXPECTED)} seeded findings "
          "detected, no false positives)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
