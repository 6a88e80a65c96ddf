#!/usr/bin/env python3
"""Cross-thread-count sweep determinism check.

Runs the same tiny grid through baffle_sweep twice — once with
BAFFLE_THREADS=1 (one worker: every parallel_for runs inline) and once
with BAFFLE_THREADS=4 — and asserts every emitted CSV is byte-identical:
per-cell seeds are a pure function of cell coordinates and never of
scheduling. The in-process Sweep.* tests compare pool sizes too; this
run checks the same property at the CLI surface, through the env
variable and the CSV writers.

Usage: sweep_parity_test.py /path/to/baffle_sweep
"""

import os
import subprocess
import sys
import tempfile

FLAGS = [
    "--lookback=8",
    "--q=2,3",
    "--reps=2",
    "--rounds=14",
    "--clients=30",
    "--defense-start=8",
    "--train-per-class=60",
    "--poison-rounds=11",
    "--quiet=1",
]


def run_sweep(binary, out_dir, threads):
    env = dict(os.environ, BAFFLE_THREADS=str(threads))
    cmd = [binary, *FLAGS, f"--out-dir={out_dir}"]
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    csvs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as f:
                csvs[name] = f.read()
    return csvs


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} /path/to/baffle_sweep", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, d) for d in ("t1", "t4")]
        for d in dirs:
            os.mkdir(d)
        t1 = run_sweep(binary, dirs[0], threads=1)
        t4 = run_sweep(binary, dirs[1], threads=4)

    if not t1 or "sweep_results.csv" not in t1:
        print("FAIL: sweep produced no sweep_results.csv", file=sys.stderr)
        return 1
    failures = 0
    for name in sorted(set(t1) | set(t4)):
        a, b = t1.get(name), t4.get(name)
        if a == b:
            continue
        failures += 1
        print(f"FAIL: {name} differs across runs "
              f"(threads=1: {len(a or b'')}B, threads=4: {len(b or b'')}B)",
              file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {len(t1)} CSVs byte-identical across "
          "BAFFLE_THREADS=1 and BAFFLE_THREADS=4")
    return 0


if __name__ == "__main__":
    sys.exit(main())
