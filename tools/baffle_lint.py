#!/usr/bin/env python3
"""baffle_lint: project-specific lint rules clang-tidy cannot express.

Rules (each failure names the file and the rule id):

  dispatch-table      Every function-pointer entry in the KernelTable of
                      tensor/kernels.hpp must have an implementation in
                      BOTH kernel arms (kernels_scalar.cpp and
                      kernels_simd.cpp) and coverage in the SimdParity
                      suite (tests/tensor/simd_parity_test.cpp).
  no-iostream         Library translation units (src/**) must not
                      include <iostream>/<cstdio>/<stdio.h> or call
                      printf/fprintf/puts. Console output belongs to the
                      executables (tools/, bench/, examples/) and to the
                      single designated sink, src/util/logging.cpp.
  no-naked-new        No `new`/`delete` expressions in src/**; use
                      containers or smart pointers.
  no-libc-random      No rand()/srand()/time() seeding in src/**; all
                      randomness flows through util/rng.hpp so runs stay
                      reproducible.
  raw-sync            No naked std::mutex / std::lock_guard /
                      std::condition_variable (and friends) in src/**;
                      all locking goes through the annotated capability
                      wrappers in util/sync.hpp so Clang Thread Safety
                      Analysis sees every critical section. sync.hpp
                      itself is the one sanctioned user of the raw
                      primitives.
  env-knob            std::getenv under src/** may read only the
                      documented environment variables (ALLOWED_ENV:
                      logging, pool size, dispatch pin, bench reps and
                      fast mode). A new env read is a hidden knob that
                      can change behaviour without a flag or a config
                      field.
  header-hygiene      Every header under src/ must be self-contained:
                      `#include "x.hpp"` alone must compile (checked
                      with $CXX -fsyntax-only). Skipped with
                      --no-headers or when no compiler is available.

Exit status: 0 when clean, 1 when any rule fires, 2 on usage errors.
A line may opt out with a trailing `// baffle-lint: allow(<rule>)`
comment; abuse of that shows up in review.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile

LIBRARY_OUTPUT_SINKS = {os.path.join("util", "logging.cpp")}
# The annotated wrapper layer is the single sanctioned user of the raw
# standard-library synchronization primitives.
RAW_SYNC_SINKS = {os.path.join("util", "sync.hpp")}

IOSTREAM_INCLUDE = re.compile(r'^\s*#\s*include\s*<(iostream|cstdio|stdio\.h)>')
PRINTF_CALL = re.compile(r'(?<![\w:.])(?:std::)?(?:printf|fprintf|puts)\s*\(')
NEW_EXPR = re.compile(r'(?<![\w.])new\s+[A-Za-z_(]')
DELETE_EXPR = re.compile(r'(?<![\w.])delete(\[\])?\s+[A-Za-z_(*]')
LIBC_RANDOM = re.compile(r'(?<![\w:.])(?:std::)?(?:rand|srand|time)\s*\(')
RAW_SYNC = re.compile(
    r'std::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|'
    r'condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|'
    r'shared_lock)\b')
RAW_SYNC_INCLUDE = re.compile(
    r'^\s*#\s*include\s*<(mutex|shared_mutex|condition_variable)>')
GETENV_CALL = re.compile(r'(?<![\w.])(?:std::)?getenv\s*\(')
GETENV_NAME = re.compile(r'(?<![\w.])(?:std::)?getenv\s*\(\s*"([^"]*)"\s*\)')
# The only environment variables library code may read.
ALLOWED_ENV = {
    "BAFFLE_LOG",
    "BAFFLE_THREADS",
    "BAFFLE_FORCE_SCALAR",
    "BAFFLE_BENCH_REPS",
    "BAFFLE_BENCH_FAST",
}
ALLOW = re.compile(r'//\s*baffle-lint:\s*allow\(([a-z-]+)\)')

TABLE_MEMBER = re.compile(r'\(\s*\*\s*(\w+)\s*\)\s*\(')


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents so the
    pattern rules do not fire on prose or log messages."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == '/' and i + 1 < n and line[i + 1] == '/':
            break
        if c in ('"', "'"):
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == '\\':
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return ''.join(out)


class Linter:
    def __init__(self, root: str) -> None:
        self.root = root
        self.failures: list[str] = []

    def fail(self, rule: str, path: str, line_no: int | None, msg: str) -> None:
        rel = os.path.relpath(path, self.root)
        where = f"{rel}:{line_no}" if line_no else rel
        self.failures.append(f"{where}: [{rule}] {msg}")

    # -- pattern rules over library TUs --------------------------------

    def lint_source_file(self, path: str) -> None:
        rel = os.path.relpath(path, os.path.join(self.root, "src"))
        is_output_sink = rel in LIBRARY_OUTPUT_SINKS
        is_sync_sink = rel in RAW_SYNC_SINKS
        with open(path, encoding="utf-8") as f:
            for line_no, raw in enumerate(f, start=1):
                allowed = {m for m in ALLOW.findall(raw)}
                line = strip_comments_and_strings(raw)
                if not is_output_sink and "no-iostream" not in allowed:
                    if IOSTREAM_INCLUDE.search(line) or PRINTF_CALL.search(line):
                        self.fail("no-iostream", path, line_no,
                                  "console I/O in a library TU (route it "
                                  "through util/logging.hpp)")
                if "no-naked-new" not in allowed:
                    if NEW_EXPR.search(line) or DELETE_EXPR.search(line):
                        self.fail("no-naked-new", path, line_no,
                                  "naked new/delete (use containers or "
                                  "smart pointers)")
                if "no-libc-random" not in allowed:
                    if LIBC_RANDOM.search(line):
                        self.fail("no-libc-random", path, line_no,
                                  "libc rand()/srand()/time() (use "
                                  "util/rng.hpp so runs are reproducible)")
                if "env-knob" not in allowed and GETENV_CALL.search(line):
                    # Names are string literals, which the stripped line
                    # has blanked out: read them from the raw line.
                    names = GETENV_NAME.findall(raw)
                    bad = [n for n in names if n not in ALLOWED_ENV]
                    if bad or not names:
                        what = ", ".join(bad) if bad else "a non-literal name"
                        self.fail("env-knob", path, line_no,
                                  f"getenv of {what} (only "
                                  f"{', '.join(sorted(ALLOWED_ENV))} may be "
                                  "read; configuration goes through flags "
                                  "and config structs)")
                if not is_sync_sink and "raw-sync" not in allowed:
                    if RAW_SYNC.search(line) or RAW_SYNC_INCLUDE.search(line):
                        self.fail("raw-sync", path, line_no,
                                  "raw standard-library synchronization "
                                  "(use the annotated wrappers in "
                                  "util/sync.hpp so thread-safety "
                                  "analysis sees the critical section)")

    # -- dispatch-table completeness -----------------------------------

    # Table members are wrappers around differently-named public entry
    # points in a few places; the parity test exercises those.
    PARITY_ALIASES = {
        "gemm_ab_rows": ["gemm_ab"],
        "gemm_atb_rows": ["gemm_atb"],
        "gemm_abt_rows": ["gemm_abt"],
        "gemm_packed_rows": ["gemm_ab_packed"],
        "squared_l2": ["l2_norm", "squared_l2"],
        "sum_d": ["sum(", "sum ("],
        "sum_sq_diff_d": ["sum_sq_diff"],
        "add_mt19937_64": ["add_prg_mask"],
    }

    def lint_dispatch_table(self) -> None:
        table_path = os.path.join(self.root, "src", "tensor", "kernels.hpp")
        scalar_path = os.path.join(self.root, "src", "tensor",
                                   "kernels_scalar.cpp")
        simd_path = os.path.join(self.root, "src", "tensor",
                                 "kernels_simd.cpp")
        parity_path = os.path.join(self.root, "tests", "tensor",
                                   "simd_parity_test.cpp")
        for p in (table_path, scalar_path, simd_path, parity_path):
            if not os.path.exists(p):
                self.fail("dispatch-table", p, None, "file missing")
                return

        text = open(table_path, encoding="utf-8").read()
        struct = re.search(r'struct KernelTable\s*\{(.*?)\n\};', text,
                           re.DOTALL)
        if not struct:
            self.fail("dispatch-table", table_path, None,
                      "could not locate struct KernelTable")
            return
        members = TABLE_MEMBER.findall(struct.group(1))
        if not members:
            self.fail("dispatch-table", table_path, None,
                      "KernelTable has no function-pointer members")
            return

        scalar = open(scalar_path, encoding="utf-8").read()
        simd = open(simd_path, encoding="utf-8").read()
        parity = open(parity_path, encoding="utf-8").read()
        for name in members:
            if name not in scalar:
                self.fail("dispatch-table", scalar_path, None,
                          f"table entry '{name}' has no scalar "
                          "implementation")
            if name not in simd:
                self.fail("dispatch-table", simd_path, None,
                          f"table entry '{name}' has no SIMD "
                          "implementation")
            probes = [name] + self.PARITY_ALIASES.get(name, [])
            if not any(p in parity for p in probes):
                self.fail("dispatch-table", parity_path, None,
                          f"table entry '{name}' has no SimdParity "
                          "coverage")

    # -- header self-containment ---------------------------------------

    def lint_headers(self, jobs: int) -> None:
        cxx = os.environ.get("CXX") or shutil.which("g++") or \
            shutil.which("clang++")
        if cxx is None:
            print("baffle_lint: SKIP header-hygiene (no C++ compiler found)")
            return
        src = os.path.join(self.root, "src")
        headers = []
        for dirpath, _, files in os.walk(src):
            for f in sorted(files):
                if f.endswith(".hpp"):
                    headers.append(os.path.join(dirpath, f))

        def compile_one(header: str) -> tuple[str, str | None]:
            rel = os.path.relpath(header, src)
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".cpp", delete=False) as tu:
                tu.write(f'#include "{rel}"\n')
                tu_path = tu.name
            try:
                proc = subprocess.run(
                    [cxx, "-std=c++20", "-fsyntax-only", "-I", src, tu_path],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    lines = proc.stderr.strip().splitlines()
                    summary = next((ln for ln in lines if "error" in ln),
                                   lines[-1] if lines else "compile failed")
                    return rel, summary.strip()
                return rel, None
            finally:
                os.unlink(tu_path)

        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            for rel, err in pool.map(compile_one, headers):
                if err is not None:
                    self.fail("header-hygiene",
                              os.path.join(src, rel), None,
                              f"header is not self-contained: {err}")

    def run(self, check_headers: bool, jobs: int) -> int:
        src = os.path.join(self.root, "src")
        if not os.path.isdir(src):
            print(f"baffle_lint: no src/ under {self.root}", file=sys.stderr)
            return 2
        for dirpath, _, files in os.walk(src):
            for f in sorted(files):
                if f.endswith(".cpp") or f.endswith(".hpp"):
                    self.lint_source_file(os.path.join(dirpath, f))
        self.lint_dispatch_table()
        if check_headers:
            self.lint_headers(jobs)

        if self.failures:
            for failure in sorted(self.failures):
                print(failure)
            print(f"baffle_lint: {len(self.failures)} violation(s)")
            return 1
        print("baffle_lint: clean")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the checkout containing this script)")
    parser.add_argument("--no-headers", action="store_true",
                        help="skip the header self-containment compile")
    parser.add_argument("--jobs", type=int,
                        default=max(1, (os.cpu_count() or 1)),
                        help="parallelism for header compiles")
    args = parser.parse_args()
    return Linter(os.path.abspath(args.root)).run(
        check_headers=not args.no_headers, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
