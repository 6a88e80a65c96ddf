#!/usr/bin/env python3
"""Cross-thread-count and cross-engine baffle_sim determinism check.

Runs the same short defended simulation through baffle_sim at
BAFFLE_THREADS=1 (one worker: every parallel_for runs inline) and at
BAFFLE_THREADS=4, both in process and over the wire protocol
(--transport=1), and asserts each mode's output is identical across the
two thread counts once the millisecond timings are masked. Rates,
accuracies, cache and engine counters and wire byte counts must all
match. The two round engines must also print the same summary apart
from the transport's `wire traffic (exact):` line: the same records,
and the same validator counters (profile hits, misses and promotions).
The in-process ParallelExperiment.* and TransportParity.* tests
compare pool sizes and engines too; this run checks the same
properties at the CLI surface, through the env variable and the
printed summary.

Usage: sim_parity_test.py /path/to/baffle_sim
"""

import os
import re
import subprocess
import sys

FLAGS = [
    "--quiet=1",
    "--rounds=20",
    "--clients=25",
    "--defense-start=10",
    "--lookback=8",
    "--poison-rounds=15",
]

# A figure followed by a millisecond unit ("1.23 ms/round", "45.6 ms
# pretraining"): wall-clock time, the only output allowed to differ.
TIMING = re.compile(r"\d+(?:\.\d+)?(?= ms\b)")

# Lines every run must print, so masking cannot hide an empty summary.
REQUIRED = ("clean rounds:", "poisoned rounds:", "final main accuracy:",
            "accuracy tracking:", "cache:")

# The one line only the transport engine prints.
WIRE_LINE = "wire traffic (exact):"


def run_sim(binary, threads, extra):
    env = dict(os.environ, BAFFLE_THREADS=str(threads))
    out = subprocess.run([binary, *FLAGS, *extra], check=True, env=env,
                         stdout=subprocess.PIPE, text=True).stdout
    return TIMING.sub("<ms>", out)


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} /path/to/baffle_sim", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    failures = 0
    summaries = {}
    for mode, extra in (("direct", []), ("transport", ["--transport=1"])):
        t1 = run_sim(binary, 1, extra)
        t4 = run_sim(binary, 4, extra)
        missing = [line for line in REQUIRED if line not in t1]
        if missing:
            failures += 1
            print(f"FAIL: {mode} output lacks {missing}:\n{t1}",
                  file=sys.stderr)
        if mode == "transport" and WIRE_LINE not in t1:
            failures += 1
            print(f"FAIL: transport output lacks its wire line:\n{t1}",
                  file=sys.stderr)
        if t1 != t4:
            failures += 1
            print(f"FAIL: {mode} output differs across thread counts\n"
                  f"--- BAFFLE_THREADS=1\n{t1}--- BAFFLE_THREADS=4\n{t4}",
                  file=sys.stderr)
        summaries[mode] = "".join(line for line in t1.splitlines(True)
                                  if not line.startswith(WIRE_LINE))
    if summaries["direct"] != summaries["transport"]:
        failures += 1
        print(f"FAIL: the round engines print different summaries\n"
              f"--- direct\n{summaries['direct']}"
              f"--- transport\n{summaries['transport']}", file=sys.stderr)
    if failures:
        return 1
    print("OK: baffle_sim output identical across BAFFLE_THREADS=1 and 4, "
          "in process and over the wire, and across the two engines "
          "apart from the wire line (timings masked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
