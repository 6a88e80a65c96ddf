#pragma once
// Scenario×seed sweep orchestrator (DESIGN.md §15).
//
// A sweep is the cross-product of config axes (row-major, first axis
// slowest) times `reps` repetitions per cell. Cells and repetitions are
// mutually independent experiments, so the parallel mode fans every
// cell×rep out as an experiment root on one shared TaskGraph — the
// fork-joins inside each experiment's rounds nest inside those roots
// and the whole tree shares ThreadPool::global()'s workers.
//
// Determinism: every repetition's seed is a pure function of
// (base_seed, cell_index, rep) — never of scheduling — so per-cell
// results are bit-identical across thread counts and between the
// serial and parallel drivers. The CSV emitters below exclude all
// timing fields for the same reason: their bytes are comparable across
// runs (the sweep bench and CI smoke both assert exactly that).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "util/stats.hpp"

namespace baffle {

/// One labeled setting of an axis, e.g. {"8", set lookback to 8}.
struct SweepValue {
  std::string label;
  std::function<void(ExperimentConfig&)> apply;
};

/// One swept dimension, e.g. "lookback" over {8, 12, 20}.
struct SweepAxis {
  std::string name;
  std::vector<SweepValue> values;
};

struct SweepSpec {
  ExperimentConfig base;
  std::vector<SweepAxis> axes;
  std::size_t reps = 5;  // paper's 5-repetition averaging
  std::uint64_t base_seed = 1;
};

/// One point of the cross-product: the fully applied config plus its
/// schedule-independent cell seed.
struct SweepCell {
  std::size_t index = 0;
  std::string name;                 // "lookback=8,quorum=3"
  std::vector<std::size_t> coords;  // per-axis value index
  ExperimentConfig config;
  std::uint64_t seed = 0;  // repetition i runs with seed + i
};

/// Compact per-repetition record — everything the aggregate tables
/// need, none of the per-round bulk.
struct SweepRepRow {
  std::uint64_t seed = 0;
  DetectionRates rates;
  double final_main_accuracy = 0.0;
  double final_backdoor_accuracy = 0.0;
  std::size_t adaptive_skipped = 0;
};

struct SweepCellResult {
  std::size_t index = 0;
  std::string name;
  std::vector<std::string> labels;  // per-axis value label
  std::vector<SweepRepRow> reps;
  MeanStd fp;
  MeanStd fn;
  MeanStd main_accuracy;
  MeanStd backdoor_accuracy;
};

struct SweepResult {
  std::vector<SweepCellResult> cells;
};

/// Cell seed: a split-mix hash of the base seed and the cell's
/// cross-product index, spaced by the 64-bit golden ratio so adjacent
/// cells land in unrelated stream regions. Pure function of its
/// arguments — this is what makes sweeps thread-count invariant.
std::uint64_t sweep_cell_seed(std::uint64_t base_seed, std::size_t cell_index);

/// Expands the cross-product in row-major order (first axis slowest).
/// Throws std::invalid_argument on an empty axis.
std::vector<SweepCell> enumerate_cells(const SweepSpec& spec);

/// Runs every cell×rep. `parallel` fans them out as TaskGraph roots on
/// the shared pool; serial runs the same loop inline (the benchmark
/// baseline). Results are bit-identical between the two modes.
SweepResult run_sweep(const SweepSpec& spec, bool parallel = true);

/// Aggregate table: one row per cell (axis labels + mean/std columns).
/// No timing columns — bytes are deterministic for a given spec.
void write_sweep_csv(const SweepSpec& spec, const SweepResult& result,
                     const std::string& path);

/// Per-repetition rows for one cell. Deterministic bytes, same as above.
void write_cell_csv(const SweepCellResult& cell, const std::string& path);

}  // namespace baffle
