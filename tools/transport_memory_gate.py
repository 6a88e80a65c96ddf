#!/usr/bin/env python3
"""Wire-path memory gate for baffle_sim.

Runs baffle_sim in process and over the wire protocol (--transport=1)
for each configuration below, on one pool worker (BAFFLE_THREADS=1),
and fails when a transport run's peak resident set exceeds the
in-process run's by more than MAX_RATIO. Over the wire every client
actor keeps its own window of the last l+1 accepted models, so a
transport run that stores one decoded copy per actor (instead of
sharing bit-equal snapshots) grows with clients x (l+1) x model size
and trips this gate long before the in-process run moves. So does one
that encodes every validator's history delta before any actor reads
(FEMNIST: 1.37x, where streaming the deltas reads 1.12x).

Each child's peak is read from the rusage os.wait4 returns for that
child alone. RUSAGE_CHILDREN is not used: it keeps a running maximum
over every child reaped so far, so a later, smaller run would report an
earlier run's peak.

Usage: transport_memory_gate.py /path/to/baffle_sim
"""

import os
import subprocess
import sys

CONFIGS = (
    ("vision l=40", ["--lookback=40", "--rounds=120"]),
    ("femnist", ["--task=femnist", "--rounds=60"]),
)

# Largest allowed transport / in-process peak-RSS ratio. Streamed
# deltas read 1.07x (vision l=40) and 1.12-1.13x (femnist) on a 4-vCPU
# AVX-512F host; queued deltas read 1.17-1.18x and 1.37x.
MAX_RATIO = 1.25


def peak_mb(binary, flags):
    """Runs baffle_sim once and returns its own peak RSS in MiB."""
    env = dict(os.environ, BAFFLE_THREADS="1")
    proc = subprocess.Popen([binary, "--quiet=1", *flags], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    # The child is reaped here; tell Popen so it never waits on it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"baffle_sim {' '.join(flags)} exited "
                           f"{proc.returncode}")
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} /path/to/baffle_sim", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    failures = 0
    for name, flags in CONFIGS:
        inproc = peak_mb(binary, flags)
        wired = peak_mb(binary, [*flags, "--transport=1"])
        ratio = wired / inproc
        verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
        print(f"{verdict}: {name}: peak RSS {wired:.1f} MB over the wire, "
              f"{inproc:.1f} MB in process ({ratio:.2f}x, limit "
              f"{MAX_RATIO:.2f}x)")
        if ratio > MAX_RATIO:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
