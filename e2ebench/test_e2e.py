#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

  python3 -m unittest discover -s e2ebench -p 'test_*.py'

The statistics and naming tests need nothing; the replay and smoke
tests build baffle_e2e first (as run.py does) and take about a minute.
"""

import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 50), 50)
        self.assertEqual(run.percentile(xs, 99), 99)
        self.assertEqual(run.percentile(xs, 100), 100)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(run.percentile([7.0], 99.9), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        for n in (20, 21, 100, 999, 1000, 1098, 3300, 5500, 10000, 200000):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(run.samples_beyond(n, p), run.TAIL_BEYOND)
            for higher in (q for q in run.TAIL_LADDER if q > p):
                self.assertLess(run.samples_beyond(n, higher), run.TAIL_BEYOND)

    def test_tail_selection(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(660), 98.0)
        self.assertEqual(run.tail_percentile(3300), 99.5)
        self.assertEqual(run.tail_percentile(5), 50.0)  # too few: median
        self.assertEqual(run.tail(list(range(1000))), (99.0, 989, 10))


class MetricNames(unittest.TestCase):
    ALL = run.END_TO_END + run.PER_LAYER

    def test_charset(self):
        for name, unit, better in self.ALL:
            self.assertTrue(run.valid_metric_name(name), name)
            self.assertIn(better, ("higher", "lower"))
            self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_rejects_bad_names(self):
        for bad in ("", "a b", "x/y", "-lead", "_lead", "é", "a" * 65):
            self.assertFalse(run.valid_metric_name(bad), bad)
        self.assertTrue(run.valid_metric_name("a" * 64))

    def test_unique(self):
        names = [n for n, _, _ in self.ALL]
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_agrees(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def sweep_raw(n_sweeps, distinct, slow_sweeps=(), stolen=1.0, program=1.0,
              host=1.0):
    """A synthetic untraced sweep_grid record: 4 cells x 2 reps per sweep,
    and sweep k has base seed k % distinct, so its quality depends only on
    that. `program` stretches every on-CPU and wall time, as a slower
    program does; `host` stretches them and the gauge alike, as a slower
    host does; a sweep in `slow_sweeps` (and its set-ups) ran in a phase
    that slowed it by 1.4x and that the gauge missed; `stolen` stretches
    wall time only, as time the host takes away does."""
    def span(k):
        return program * host * (1.4 if k in slow_sweeps else 1.0)

    def sweep(k):
        seed, f = k % distinct, span(k)
        return {"wall_s": f * stolen * 4.0, "cells": 4, "experiments": 8,
                "rounds": 400, "fp_rate": 0.3 + 0.01 * seed,
                "fn_rate": 0.0, "main_accuracy": 0.9 - 0.01 * seed,
                "round_ms": [f * stolen * (1.0 + i % 50) for i in range(400)],
                "experiment_s": [f * stolen * (0.5 + 0.02 * (e // 2))
                                 for e in range(8)],
                "experiment_cpu_s": [f * (0.5 + 0.02 * (e // 2))
                                     for e in range(8)],
                "experiment_gauge_s": [host * run.GAUGE_REF_S] * 8}
    return {"workload": run.SWEEP, "distinct_sweeps": distinct,
            "timing_cpus": 4,
            "sweeps": [sweep(k) for k in range(n_sweeps)],
            "setups": [{"total_s": span(i // 2) * stolen * 0.15,
                        "cpu_s": span(i // 2) * 0.15,
                        "gauge_s": host * run.GAUGE_REF_S}
                       for i in range(2 * n_sweeps)],
            "peak_rss_mb": 30.0}


def single_raw(slow_reps=(), stolen=1.0, program=1.0, host=1.0):
    """A synthetic untraced vision_inproc record of 32 repetitions of 100
    rounds, stretched as in sweep_raw (a repetition in `slow_reps` and its
    set-up ran in the phase the gauge missed)."""
    f = [program * host * (1.4 if i in slow_reps else 1.0) for i in range(32)]
    return {"workload": "vision_inproc", "rounds_per_rep": 100,
            "rep_cpu_s": [x * 1.0 for x in f],
            "rep_wall_s": [x * stolen * 1.0 for x in f],
            "rep_gauge_s": [host * run.GAUGE_REF_S] * 32,
            "round_ms": [x * stolen * (5.0 + i % 7)
                         for x in f for i in range(100)],
            "digests": ["a", "b"], "fp_rate": 0.05, "fn_rate": 0.0,
            "timing_cpus": 4, "main_accuracy": 0.9,
            "setups": [{"total_s": x * stolen * 0.15, "cpu_s": x * 0.15,
                        "gauge_s": host * run.GAUGE_REF_S} for x in f],
            "peak_rss_mb": 30.0}


class Metrics(unittest.TestCase):
    QUALITY = ("clean_accept_rate", "detection_rate", "main_accuracy")

    def test_cut_repeats_keep_quality(self):
        full = run.end_to_end_metrics(sweep_raw(6, 3), [])
        cut = run.end_to_end_metrics(sweep_raw(3, 3), [])
        for name in self.QUALITY:
            self.assertEqual(full[name], cut[name], name)

    def assert_same(self, a, b):
        for name, value in a.items():
            self.assertAlmostEqual(b[name], value, places=9, msg=name)

    def test_calm_spans_set_the_figures(self):
        # A phase the gauge misses, over two thirds of the sweeps or half
        # of the repetitions, moves nothing.
        self.assert_same(
            run.end_to_end_metrics(sweep_raw(6, 5), []),
            run.end_to_end_metrics(sweep_raw(6, 5, slow_sweeps=(1, 2, 4, 5)), []))
        self.assert_same(
            run.end_to_end_metrics(single_raw(), []),
            run.end_to_end_metrics(
                single_raw(slow_reps=[i for i in range(32) if i % 2]), []))

    def test_slower_host_reads_the_same(self):
        self.assert_same(run.end_to_end_metrics(sweep_raw(6, 3), []),
                         run.end_to_end_metrics(sweep_raw(6, 3, host=1.4), []))
        self.assert_same(run.end_to_end_metrics(single_raw(), []),
                         run.end_to_end_metrics(single_raw(host=1.4), []))

    def test_slower_program_reads_slower(self):
        for fast, slow in ((sweep_raw(6, 3), sweep_raw(6, 3, program=1.4)),
                           (single_raw(), single_raw(program=1.4))):
            a = run.end_to_end_metrics(fast, [])
            b = run.end_to_end_metrics(slow, [])
            for name in ("round_ms_p50", "round_ms_tail", "setup_s"):
                self.assertAlmostEqual(b[name], 1.4 * a[name], msg=name)
            for name in ("rounds_per_s", "experiments_per_s"):
                self.assertAlmostEqual(b[name], a[name] / 1.4, msg=name)

    def test_stolen_time_reads_the_same(self):
        self.assert_same(run.end_to_end_metrics(sweep_raw(6, 3), []),
                         run.end_to_end_metrics(sweep_raw(6, 3, stolen=1.5), []))
        self.assert_same(run.end_to_end_metrics(single_raw(), []),
                         run.end_to_end_metrics(single_raw(stolen=1.5), []))

    def test_single_run_figures(self):
        m = run.end_to_end_metrics(single_raw(), [])
        self.assertAlmostEqual(m["setup_s"], 0.15)
        # A 1.0 s repetition on-CPU, less its 0.15 s set-up.
        self.assertAlmostEqual(m["rounds_per_s"], 100 / 0.85)
        self.assertAlmostEqual(m["experiments_per_s"], 1.0)
        self.assertEqual(m["round_ms_p50"], 8.0)

    def test_sweep_figures(self):
        m = run.end_to_end_metrics(sweep_raw(6, 3), [])
        # Cell c's experiments take 0.5 + 0.02 c s.
        grid_s = sum(0.5 + 0.02 * c for c in range(4))
        self.assertAlmostEqual(m["experiments_per_s"], 4 / grid_s)
        self.assertAlmostEqual(m["rounds_per_s"], 200 / grid_s)


class BenchBinary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def trace(self, workload):
        return run.invoke("trace", workload, seed=7, seconds=1,
                          threads=run.pool_threads(),
                          deadline=time.monotonic() + 170, smoke=True)

    def test_replay_verdicts_equal_run(self):
        raw = self.trace("vision_inproc")
        checks = {c["name"]: c["ok"] for c in raw["checks"]}
        self.assertTrue(checks["replay_verdicts_equal_run"])
        self.assertTrue(checks["untraced_replay_equals_traced"])
        self.assertEqual(raw["traced"]["digest"], raw["reference"]["digest"])

    def test_transport_replay_equals_inproc(self):
        raw = self.trace("vision_transport")
        self.assertTrue(all(c["ok"] for c in raw["checks"]), raw["checks"])
        self.assertGreater(raw["traced"]["ledger"]["wire_bytes"], 0)

    def test_smoke_every_workload(self):
        self.assertEqual(run.main(["--smoke"]), 0)


if __name__ == "__main__":
    unittest.main()
