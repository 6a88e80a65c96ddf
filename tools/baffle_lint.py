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
                      executables (tools/, bench/, examples/); the
                      library reports through MetricsRegistry, return
                      values and exceptions.
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
  thread-local        No `thread_local` in src/** outside
                      util/scratch_lease.hpp: per-thread scratch is
                      leased per (thread, nesting depth) through
                      ScratchLease, because a plain thread_local buffer
                      can be reused mid-call by a help-drained task on
                      the same thread. The one other sanctioned use is
                      util/metrics.cpp's helped-time counter (a
                      per-thread tally, not scratch).
  rng-engine          std::mt19937, std::mt19937_64,
                      std::normal_distribution and std::random_device
                      appear in src/** only in util/rng.hpp and
                      util/rng.cpp: every draw goes through Rng's one
                      engine, whose sequence the parity tests pin to
                      std's (the tests keep std's engine as their
                      oracle).
  metric-name         No string literal passed as a metric name
                      (add_counter, add_timer, counter, timer_*, or a
                      ScopedTimer's name) in src/** or tools/**: every
                      registry name is a constant in
                      src/util/metric_names.hpp, so a typo cannot
                      silently start a new metric.
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

# The annotated wrapper layer is the single sanctioned user of the raw
# standard-library synchronization primitives.
RAW_SYNC_SINKS = {os.path.join("util", "sync.hpp")}

# thread_local is sanctioned on the lines of these files that contain
# the given text: every line of the lease's slot stack, and only the
# helped-time counter in util/metrics.cpp.
THREAD_LOCAL_SINKS = {
    os.path.join("util", "scratch_lease.hpp"): "",
    os.path.join("util", "metrics.cpp"): "t_helped_seconds",
}

# Rng's engine is the one sanctioned user of std's engines and of the
# normal distribution it reproduces in batches.
RNG_ENGINE_SINKS = {os.path.join("util", "rng.hpp"),
                    os.path.join("util", "rng.cpp")}

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
THREAD_LOCAL = re.compile(r'(?<![\w])thread_local\b')
RNG_ENGINE = re.compile(
    r'std::(?:mt19937(?:_64)?|normal_distribution|random_device)\b')
ALLOW = re.compile(r'//\s*baffle-lint:\s*allow\(([a-z-]+)\)')
# A literal as the first argument of a registry call or a ScopedTimer's
# name, matched on comment- and string-stripped text (literals survive
# as ""), across line breaks.
METRIC_LITERAL = re.compile(
    r'(?:(?<![\w])(?:add_counter|add_timer|counter|timer_\w+)\s*\(|'
    r'\bScopedTimer\b[^;(){}]*[({])\s*"')
METRIC_NAMES_HEADER = os.path.join("src", "util", "metric_names.hpp")

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
        is_sync_sink = rel in RAW_SYNC_SINKS
        thread_local_sink = THREAD_LOCAL_SINKS.get(rel)
        is_rng_sink = rel in RNG_ENGINE_SINKS
        with open(path, encoding="utf-8") as f:
            for line_no, raw in enumerate(f, start=1):
                allowed = {m for m in ALLOW.findall(raw)}
                line = strip_comments_and_strings(raw)
                if "no-iostream" not in allowed:
                    if IOSTREAM_INCLUDE.search(line) or PRINTF_CALL.search(line):
                        self.fail("no-iostream", path, line_no,
                                  "console I/O in a library TU (print from "
                                  "an executable in tools/, bench/ or "
                                  "examples/)")
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
                if not is_sync_sink and "raw-sync" not in allowed:
                    if RAW_SYNC.search(line) or RAW_SYNC_INCLUDE.search(line):
                        self.fail("raw-sync", path, line_no,
                                  "raw standard-library synchronization "
                                  "(use the annotated wrappers in "
                                  "util/sync.hpp so thread-safety "
                                  "analysis sees the critical section)")
                if "thread-local" not in allowed and \
                        THREAD_LOCAL.search(line) and \
                        not (thread_local_sink is not None and
                             thread_local_sink in line):
                    self.fail("thread-local", path, line_no,
                              "thread_local outside util/scratch_lease.hpp "
                              "(lease per-thread scratch through "
                              "ScratchLease so a nested call on the same "
                              "thread gets its own slot)")
                if not is_rng_sink and "rng-engine" not in allowed and \
                        RNG_ENGINE.search(line):
                    self.fail("rng-engine", path, line_no,
                              "std engine or normal_distribution outside "
                              "util/rng.* (draw through Rng, whose "
                              "sequence the parity tests pin)")

    # -- metric names --------------------------------------------------

    def lint_metric_names(self, path: str) -> None:
        if os.path.relpath(path, self.root) == METRIC_NAMES_HEADER:
            return
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        text = "\n".join(strip_comments_and_strings(ln) for ln in raw_lines)
        for m in METRIC_LITERAL.finditer(text):
            line_no = text.count("\n", 0, m.end()) + 1
            if "metric-name" in ALLOW.findall(raw_lines[line_no - 1]):
                continue
            self.fail("metric-name", path, line_no,
                      "metric name as a string literal (declare it in "
                      "src/util/metric_names.hpp and pass the constant)")

    # -- dispatch-table completeness -----------------------------------

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
            if name not in parity:
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
                    self.lint_metric_names(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(os.path.join(self.root, "tools")):
            for f in sorted(files):
                if f.endswith(".cpp") or f.endswith(".hpp"):
                    self.lint_metric_names(os.path.join(dirpath, f))
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
