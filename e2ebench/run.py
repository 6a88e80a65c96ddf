#!/usr/bin/env python3
"""End-to-end benchmark of the BaFFLe simulator.

Run from the repository root:

  python3 e2ebench/run.py --workload vision_inproc --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --smoke     # every workload, both modes, in seconds

It builds e2ebench/ (which pulls in the repository's own CMake project)
into .bench_build/, runs the benchmark binary, checks the outputs, and
prints every metric with its unit. The last line of standard output is
one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer ledger of a traced replay (README.md in this
directory lists both). Each run's full record, including the
environment fingerprint, is written to .bench_build/results/ and the
traced run's spans to .bench_build/spans/.
"""

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "baffle_e2e"

WORKLOADS = ("vision_inproc", "vision_transport", "sweep_grid")
SWEEP = "sweep_grid"
TRANSPORT = "vision_transport"

# (name, unit, better) — the end-to-end metrics every workload reports.
# Times are on-CPU times of spans pinned to one CPU each (README.md,
# "Timing").
END_TO_END = (
    ("rounds_per_s", "1/s", "higher"),
    ("round_ms_p50", "ms", "lower"),
    ("round_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("experiments_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("clean_accept_rate", "ratio", "higher"),
    ("detection_rate", "ratio", "higher"),
    ("main_accuracy", "ratio", "higher"),
)

# (name, unit, better) — the per-layer ledger of the traced run.
PER_LAYER = (
    ("exp.build_scenario_ms", "ms", "lower"),
    ("nn.pretrain_ms", "ms", "lower"),
    ("core.defense_init_ms", "ms", "lower"),
    ("exp.experiment_ms", "ms", "lower"),
    ("fl.sample_ms", "ms", "lower"),
    ("fl.propose_ms", "ms", "lower"),
    ("fl.client_update_ms_p50", "ms", "lower"),
    ("fl.client_update_ms_tail", "ms", "lower"),
    ("fl.client_updates", "count", "lower"),
    ("fl.aggregate_self_ms", "ms", "lower"),
    ("fl.update_parallel_efficiency", "ratio", "higher"),
    ("fl.commit_ms", "ms", "lower"),
    ("core.evaluate_ms", "ms", "lower"),
    ("core.validate_busy_ms", "ms", "lower"),
    ("core.engine_busy_ms", "ms", "lower"),
    ("core.score_busy_ms", "ms", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.cache_lookups", "count", "lower"),
    ("core.candidate_reuse", "count", "higher"),
    ("core.model_materializations", "count", "lower"),
    ("core.engine_tiles", "count", "lower"),
    ("nn.accuracy_eval_ms", "ms", "lower"),
    ("net.propose_ms", "ms", "lower"),
    ("net.evaluate_ms", "ms", "lower"),
    ("net.finish_ms", "ms", "lower"),
    ("net.overhead_ms_per_round", "ms", "lower"),
    ("net.bytes.download", "B", "lower"),
    ("net.bytes.upload", "B", "lower"),
    ("net.bytes.history", "B", "lower"),
    ("net.bytes.control", "B", "lower"),
    ("net.wire_bytes_per_round", "B", "lower"),
    ("net.protocol_rejects", "count", "lower"),
    ("util.graph_tasks", "count", "lower"),
    ("util.help_drained", "count", "lower"),
    ("util.node_busy_ms.train", "ms", "lower"),
    ("util.node_busy_ms.validate", "ms", "lower"),
    ("util.node_busy_ms.checkpoint", "ms", "lower"),
    ("util.node_busy_ms.eval", "ms", "lower"),
    ("util.node_busy_ms.experiment", "ms", "lower"),
    ("unattributed_ms_per_round", "ms", "lower"),
    ("replay.round_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.pipelining_gain_pct", "%", "higher"),
    ("scaling.vs_1t", "x", "higher"),
    ("scaling.vs_1t.propose", "x", "higher"),
    ("scaling.vs_1t.client_update", "x", "higher"),
    ("scaling.vs_1t.aggregate_self", "x", "higher"),
    ("scaling.vs_1t.evaluate", "x", "higher"),
    ("scaling.vs_1t.commit", "x", "higher"),
    ("scaling.vs_1t.accuracy_eval", "x", "higher"),
    ("quality.backdoor_accuracy", "ratio", "lower"),
)

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Percentiles the tail is chosen from (highest with >= TAIL_BEYOND
# samples above it).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s limit
# The host slows single vCPUs of this VM, in phases (README.md,
# "Timing"). Timed figures come from a run's calmest spans, those of
# least on-CPU time: the median of the CALM_* calmest.
CALM_REPS = 12       # single-run: of >= 16 repetitions
CALM_CELL_RUNS = 4   # sweep_grid: per cell, of >= 14 experiments
CALM_SETUPS = 4      # of >= 10 set-ups
# A host-gauge pass (e2e.cpp, HostGauge) on a calm vCPU of the reference
# box. A span whose gauge reads h times this ran on a host h times slower
# (a phase that slows every vCPU at once), and its time is divided by h.
GAUGE_REF_S = 0.0042


class BenchError(Exception):
    """A run that must not report a result (exit code != 0)."""


# ----------------------------------------------------------- statistics

def valid_metric_name(name):
    return bool(METRIC_NAME.match(name))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it; the median when n is too small for any."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_BEYOND:
            best = p
    return best


def tail(values):
    """(percentile, value, samples beyond) of the reported tail."""
    p = tail_percentile(len(values))
    return p, percentile(values, p), samples_beyond(len(values), p)


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------- build

def pool_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_steal():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None. On a
    virtual machine, steal is time the host ran something else while a
    vCPU had work."""
    try:
        with open("/proc/stat") as f:
            values = [int(x) for x in f.readline().split()[1:9]]
        return values[7], sum(values)
    except (OSError, ValueError, IndexError):
        return None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, what, timeout):
    proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    """Configures (once) and builds the benchmark binary; a no-op rebuild is a
    dependency scan."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no BaFFLe source tree at {ROOT}")
    t0 = time.monotonic()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure", 600)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "baffle_e2e",
               "-j", str(pool_threads())], "cmake build", 880)
    log(f"[e2ebench] build ok in {time.monotonic() - t0:.1f}s")


def check_environment():
    forced = os.environ.get("BAFFLE_FORCE_SCALAR")
    if forced is not None and forced != "0":
        raise BenchError("BAFFLE_FORCE_SCALAR is set: the scalar arm is a "
                         "different program; refusing to record")


def check_fingerprint(fp):
    if fp.get("build_type") != "Release":
        raise BenchError(f"non-Release build ({fp.get('build_type')!r}); "
                         "refusing to record")
    if fp.get("force_scalar_env"):
        raise BenchError("scalar arm forced; refusing to record")


def invoke(mode, workload, seed, seconds, threads, deadline, smoke=False,
           spans=None):
    """Runs baffle_e2e and returns its JSON record."""
    cmd = [BINARY, f"--mode={mode}", f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}"]
    if smoke:
        cmd.append("--smoke=1")
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans={spans}")
    env = dict(os.environ, BAFFLE_THREADS=str(threads))
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise BenchError("out of time before " + mode)
    try:
        proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} run of {workload} timed out") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"baffle_e2e exited {proc.returncode} ({mode} {workload})")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("baffle_e2e printed nothing")
    raw = json.loads(lines[-1])
    check_fingerprint(raw["fingerprint"])
    return raw


# -------------------------------------------------------------- metrics

def fastest(values, k):
    """Indices of the k smallest values (all of them if fewer)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[:max(1, min(k, len(values)))]


def on_cpu_share(cpu_s, wall_s):
    """Share of a pinned span's wall time its threads were on the CPU."""
    return min(1.0, cpu_s / wall_s)


def at_reference_speed(span):
    """A span's on-CPU seconds divided by its host factor: the gauge
    around it over GAUGE_REF_S."""
    cpu, _, gauge, _ = span
    return cpu * GAUGE_REF_S / gauge


def kept_time(spans, k):
    """The k spans of least on-CPU time (the calm ones), and the median
    of their times at reference speed."""
    kept = [spans[i] for i in fastest([s[0] for s in spans], k)]
    return kept, median([at_reference_speed(s) for s in kept])


def end_to_end_metrics(raw, notes):
    """Times are on-CPU seconds of spans pinned to one CPU each: the
    run's calm spans (CALM_*), each divided by its host factor. A span is
    (on-CPU s, wall s, gauge s, its rounds' times in ms)."""
    setups = [(s["cpu_s"], s["total_s"], s["gauge_s"], []) for s in raw["setups"]]
    _, setup_s = kept_time(setups, CALM_SETUPS)
    if raw["workload"] == SWEEP:
        # The cells run one after another in every sweep, each experiment
        # a span; a cell's time is the calm median of its experiments.
        sweeps = raw["sweeps"]
        cells = sweeps[0]["cells"]
        per_cell = sweeps[0]["experiments"] // cells
        by_cell = [[] for _ in range(cells)]
        for s in sweeps:
            per = len(s["round_ms"]) // s["experiments"]
            for e in range(s["experiments"]):
                by_cell[e // per_cell].append(
                    (s["experiment_cpu_s"][e], s["experiment_s"][e],
                     s["experiment_gauge_s"][e],
                     s["round_ms"][e * per:(e + 1) * per]))
        spans, grid_s = [], 0.0
        for runs in by_cell:
            kept, cell_s = kept_time(runs, CALM_CELL_RUNS)
            spans += kept
            grid_s += cell_s
        experiments_per_s = cells / grid_s
        # Derived: set-up is a third of each experiment, and subtracting
        # it would add its noise to a figure experiments_per_s gives.
        rounds_per_s = cells * len(spans[0][3]) / grid_s
        pooled = sweeps[:raw["distinct_sweeps"]]  # never cut
        fp, fn, main = (statistics.fmean(s[k] for s in pooled)
                        for k in ("fp_rate", "fn_rate", "main_accuracy"))
        notes.append(f"{len(sweeps)} sweeps of {cells} cells x {per_cell} "
                     f"reps over {len(pooled)} base seeds on "
                     f"{raw['timing_cpus']} CPUs in turn; a cell's time is "
                     f"the median of its {CALM_CELL_RUNS} calmest of "
                     f"{len(by_cell[0])} experiments; quality pools the "
                     "distinct seeds")
        unscaled = ("experiments_per_s", cells / sum(
            median(sorted(r[0] for r in runs)[:CALM_CELL_RUNS])
            for runs in by_cell))
    else:
        n = raw["rounds_per_rep"]
        ms = raw["round_ms"]
        reps = [(c, w, g, ms[i * n:(i + 1) * n]) for i, (c, w, g) in
                enumerate(zip(raw["rep_cpu_s"], raw["rep_wall_s"],
                              raw["rep_gauge_s"]))]
        spans, rep_s = kept_time(reps, CALM_REPS)
        experiments_per_s = 1.0 / rep_s  # derived: one per repetition
        # A repetition's round loop is the repetition less its set-up.
        rounds_per_s = n / (rep_s - setup_s)
        fp, fn, main = raw["fp_rate"], raw["fn_rate"], raw["main_accuracy"]
        notes.append(f"{len(reps)} repetitions of {n} rounds over "
                     f"{len(raw['digests'])} seeds on {raw['timing_cpus']} "
                     f"CPUs in turn; timings from the {len(spans)} calmest; "
                     "quality pools the seeds")
        unscaled = ("experiments_per_s",
                    1.0 / median([s[0] for s in spans]))
    samples = [x * on_cpu_share(c, w) * GAUGE_REF_S / g
               for c, w, g, rounds in spans for x in rounds]
    p, tail_ms, beyond = tail(samples)
    hosts = [s[2] / GAUGE_REF_S for s in spans]
    notes.append(f"setup_s = median of the {min(CALM_SETUPS, len(setups))} "
                 f"calmest of {len(setups)} set-ups")
    notes.append(f"round_ms_p50 over the {len(samples)} rounds of the kept "
                 f"spans; round_ms_tail = p{p:g} ({beyond} beyond); round "
                 "times are wall times x their span's on-CPU share")
    notes.append(f"host factor {min(hosts):.3f}..{max(hosts):.3f} over the "
                 f"kept spans; unscaled {unscaled[0]}={unscaled[1]:.6g}")
    return {
        "rounds_per_s": rounds_per_s,
        "round_ms_p50": percentile(samples, 50),
        "round_ms_tail": tail_ms,
        "setup_s": setup_s,
        "experiments_per_s": experiments_per_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "clean_accept_rate": 1.0 - fp,
        "detection_rate": 1.0 - fn,
        "main_accuracy": main,
    }


def replay_layers(raw, base, threads, notes):
    """Per-layer ledger of a single-run workload's traced replay."""
    transport = raw["workload"] == TRANSPORT
    traced = raw["traced"]
    L = traced["ledger"]
    n = L["rounds"]
    reg = L["registry"]

    def per_round_ms(seconds):
        return 1e3 * seconds / n

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    setup = traced["setup"]
    m["exp.build_scenario_ms"] = 1e3 * setup["build_scenario_s"]
    m["nn.pretrain_ms"] = 1e3 * setup["pretrain_s"]
    m["core.defense_init_ms"] = 1e3 * setup["defense_s"]
    m["fl.sample_ms"] = per_round_ms(L["sample_s"])
    side = "net" if transport else "fl"
    m[f"{side}.propose_ms"] = per_round_ms(L["propose_s"])
    m["net.evaluate_ms" if transport else "core.evaluate_ms"] = \
        per_round_ms(L["evaluate_s"])
    m["net.finish_ms"] = per_round_ms(L["finish_s"])
    m["fl.commit_ms"] = per_round_ms(L["commit_s"])
    m["nn.accuracy_eval_ms"] = per_round_ms(L["accuracy_s"])
    m["fl.client_updates"] = len(L["update_ms"])
    if L["update_ms"]:
        m["fl.client_update_ms_p50"] = percentile(L["update_ms"], 50)
        p, m["fl.client_update_ms_tail"], beyond = tail(L["update_ms"])
        notes.append(f"fl.client_update_ms_tail = p{p:g} of "
                     f"{len(L['update_ms'])} update_for calls ({beyond} beyond)")
    m["fl.aggregate_self_ms"] = per_round_ms(L["propose_s"] - L["update_union_s"])
    if L["propose_s"] > 0:
        m["fl.update_parallel_efficiency"] = \
            L["update_busy_s"] / (L["propose_s"] * threads)
    add_core(m, reg, n)
    comm = L["comm"]
    for key in ("download", "upload", "history", "control"):
        m[f"net.bytes.{key}"] = comm[key] / n
    m["net.wire_bytes_per_round"] = L["wire_bytes"] / n
    m["net.protocol_rejects"] = L["protocol_rejects"]
    if transport:
        inproc = raw["inproc_replay"]["ledger"]
        m["net.overhead_ms_per_round"] = per_round_ms(L["loop_s"] -
                                                      inproc["loop_s"])
    ref = raw["reference"]
    add_util(m, ref["registry"], n)
    attributed = sum(L[k] for k in ("sample_s", "propose_s", "evaluate_s",
                                    "commit_s", "finish_s", "accuracy_s"))
    m["unattributed_ms_per_round"] = per_round_ms(L["loop_s"] - attributed)
    m["replay.round_ms"] = per_round_ms(L["loop_s"])
    plain = raw["untraced_replay"]["ledger"]
    m["trace.overhead_pct"] = 100.0 * (L["loop_s"] / plain["loop_s"] - 1.0)
    ref_loop = ref["wall_s"] - setup["total_s"]
    m["trace.pipelining_gain_pct"] = 100.0 * (plain["loop_s"] / ref_loop - 1.0)
    m["exp.experiment_ms"] = 1e3 * ref["wall_s"]
    m["quality.backdoor_accuracy"] = ref["backdoor_accuracy"]
    notes.append(
        f"replay of {n} rounds: traced {L['loop_s']:.3f}s, untraced "
        f"{plain['loop_s']:.3f}s (tracing overhead "
        f"{m['trace.overhead_pct']:.1f}%), run_experiment round loop "
        f"{ref_loop:.3f}s (pipelining the serial replay gives up: "
        f"{m['trace.pipelining_gain_pct']:.1f}%)")

    B = base["traced"]["ledger"]
    m["scaling.vs_1t"] = B["loop_s"] / L["loop_s"]
    for key, field in (("propose", "propose_s"),
                       ("client_update", "update_union_s"),
                       ("evaluate", "evaluate_s"),
                       ("commit", "commit_s"),
                       ("accuracy_eval", "accuracy_s")):
        if L[field] > 0:
            m[f"scaling.vs_1t.{key}"] = B[field] / L[field]
    agg, agg1 = (L["propose_s"] - L["update_union_s"],
                 B["propose_s"] - B["update_union_s"])
    if agg > 0:
        m["scaling.vs_1t.aggregate_self"] = agg1 / agg
    notes.append(f"scaling.vs_1t: 1-thread replay {B['loop_s']:.3f}s vs "
                 f"{threads}-thread {L['loop_s']:.3f}s")
    return m


def add_core(m, reg, n):
    """`reg`: MetricsRegistry deltas (timers in s) over `n` rounds."""
    validate, engine = reg["validator.validate"], reg["multi_eval.run"]
    m["core.validate_busy_ms"] = 1e3 * validate / n
    m["core.engine_busy_ms"] = 1e3 * engine / n
    m["core.score_busy_ms"] = 1e3 * (validate - engine) / n
    hits = reg["prediction_cache.hits"]
    lookups = hits + reg["prediction_cache.misses"]
    m["core.cache_lookups"] = lookups
    m["core.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["core.candidate_reuse"] = reg["validator.candidate_reuse"] / n
    m["core.model_materializations"] = \
        reg["validator.model_materializations"] / n
    m["core.engine_tiles"] = reg["multi_eval.tiles"] / n


def add_util(m, reg, n):
    m["util.graph_tasks"] = reg["task_graph.tasks"] / n
    m["util.help_drained"] = reg["thread_pool.help_drained"] / n
    for kind in ("train", "validate", "checkpoint", "eval", "experiment"):
        m[f"util.node_busy_ms.{kind}"] = \
            1e3 * reg[f"task_graph.node.{kind}"] / n


def sweep_layers(raw, notes):
    """Per-layer ledger of the sweep: registry deltas around the grid and
    spans around each cell x rep experiment."""
    grid = raw["sweeps"][0]
    n = grid["rounds"]
    reg = raw["registry"]
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, key in (("exp.build_scenario_ms", "build_scenario_s"),
                      ("nn.pretrain_ms", "pretrain_s"),
                      ("core.defense_init_ms", "defense_s")):
        m[name] = 1e3 * median([t[key] for t in raw["setups"]])
    m["exp.experiment_ms"] = 1e3 * median(grid["experiment_s"])
    # Busy time of the round-loop nodes, summed over concurrent cells.
    m["fl.propose_ms"] = 1e3 * reg["experiment.round_train"] / n
    m["core.evaluate_ms"] = 1e3 * reg["experiment.round_eval"] / n
    m["nn.accuracy_eval_ms"] = 1e3 * reg["experiment.round_accuracy"] / n
    add_core(m, reg, n)
    add_util(m, reg, n)
    m["replay.round_ms"] = 1e3 * grid["wall_s"] / n
    m["trace.overhead_pct"] = 100.0 * (grid["wall_s"] /
                                       raw["run_sweep_wall_s"] - 1.0)
    m["quality.backdoor_accuracy"] = grid["backdoor_accuracy"]
    notes.append(f"traced grid {grid['wall_s']:.3f}s vs run_sweep "
                 f"{raw['run_sweep_wall_s']:.3f}s over {grid['experiments']} "
                 f"experiments / {n} rounds")
    return m


# --------------------------------------------------------------- checks

def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def run_digests(raw):
    if raw.get("sweeps"):  # the distinct sweeps; only repeats may be cut
        return [d for s in raw["sweeps"][:raw.get("distinct_sweeps", 1)]
                for d in s["digests"]]
    if "digests" in raw:
        return raw["digests"]
    return [raw[k]["digest"] for k in ("reference", "traced") if k in raw]


def check_repeat_digest(raw, key):
    """Timing-free RoundRecord digests must repeat exactly across runs of
    one build with the same inputs. The first run records them."""
    path = BUILD_DIR / "digests" / binary_digest() / f"{key}.json"
    digests = run_digests(raw)
    if path.is_file():
        return json.loads(path.read_text()) == digests
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests))
    return True


def tally(raw, extra_checks):
    checks = list(raw["checks"]) + extra_checks
    attempted = max(1, int(raw["attempted"]))
    failed = sum(c["rounds"] for c in checks if not c["ok"])
    return checks, attempted, min(failed, attempted)


# ------------------------------------------------------------------ run

def run_workload(workload, seed, seconds, trace, smoke=False):
    deadline = time.monotonic() + RUN_BUDGET_S
    threads = pool_threads()
    notes = []
    steal_before = cpu_steal()
    if trace:
        spans = BUILD_DIR / "spans" / f"{workload}-seed{seed}.jsonl"
        raw = invoke("trace", workload, seed, seconds, threads, deadline,
                     smoke, spans)
        if workload == SWEEP:
            metrics = sweep_layers(raw, notes)
        else:
            base = invoke("replay", workload, seed, seconds, 1, deadline, smoke,
                          BUILD_DIR / "spans" / f"{workload}-seed{seed}-1t.jsonl")
            raw["attempted"] += base["attempted"]
            raw["checks"] += base["checks"]
            metrics = replay_layers(raw, base, threads, notes)
        units = PER_LAYER
    else:
        # One pool worker; the binary pins each span to one CPU, in turn
        # (README.md, "Timing").
        raw = invoke("run", workload, seed, seconds, 1, deadline, smoke)
        metrics = end_to_end_metrics(raw, notes)
        units = END_TO_END
    steal_after = cpu_steal()
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        share = (steal_after[0] - steal_before[0]) / \
            (steal_after[1] - steal_before[1])
        notes.append(f"host CPU steal during the run: {100 * share:.1f}% "
                     "of all CPU time")
    key = f"{workload}-{'trace' if trace else 'run'}-seed{seed}-s{seconds}" + \
          ("-smoke" if smoke else "")
    digest_ok = check_repeat_digest(raw, key)
    checks, attempted, failed = tally(
        raw, [{"name": "digest_repeats_across_runs", "ok": digest_ok,
               "rounds": raw["attempted"]}])
    result = {
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, fingerprint=raw["fingerprint"], notes=notes,
                  checks=checks)
    out = BUILD_DIR / "results" / f"{key}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    return result, record


def report(record):
    fp = record["fingerprint"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for note in record["notes"]:
        print(f"# {note}")
    for c in record["checks"]:
        print(f"# check {c['name']}: {'ok' if c['ok'] else 'FAILED'}")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")


def smoke():
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(workload, 1, 1, trace, smoke=True)
            report(record)
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {}}


def stop_on_sigterm(signum, frame):
    """Turns SIGTERM into an exception, so subprocess.run kills and waits
    for the running baffle_e2e or build before this process exits."""
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None):
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload in both modes at tiny sizes")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        check_environment()
        build()
        if args.smoke:
            result = smoke()
        else:
            result, record = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace)
            report(record)
    except BenchError as e:
        log(f"[e2ebench] error: {e}")
        return 2
    print(json.dumps(result))
    return 0 if args.smoke is False or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
