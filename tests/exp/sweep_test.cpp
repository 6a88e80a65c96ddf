// Sweep orchestrator: cross-product enumeration, seed determinism, and
// bit-parity between the serial cell loop and the task-graph fan-out.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/sweep.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.scenario = vision_scenario(0.10);
  cfg.scenario.num_clients = 30;
  cfg.scenario.train_per_class_override = 60;
  cfg.feedback.quorum = 3;
  cfg.feedback.validator.lookback = 8;
  cfg.schedule = AttackSchedule::stable_scenario();
  cfg.schedule.poison_rounds = {11};
  cfg.rounds = 14;
  cfg.defense_start = 8;
  cfg.track_accuracy = true;
  return cfg;
}

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.axes = {
      {"lookback",
       {{"6", [](ExperimentConfig& c) { c.feedback.validator.lookback = 6; }},
        {"8",
         [](ExperimentConfig& c) { c.feedback.validator.lookback = 8; }}}},
      {"q",
       {{"2", [](ExperimentConfig& c) { c.feedback.quorum = 2; }},
        {"3", [](ExperimentConfig& c) { c.feedback.quorum = 3; }}}}};
  spec.reps = 2;
  spec.base_seed = 5;
  return spec;
}

void expect_rows_identical(const SweepRepRow& a, const SweepRepRow& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.rates.false_positives, b.rates.false_positives);
  EXPECT_EQ(a.rates.false_negatives, b.rates.false_negatives);
  EXPECT_EQ(a.rates.clean_rounds, b.rates.clean_rounds);
  EXPECT_EQ(a.rates.poisoned_rounds, b.rates.poisoned_rounds);
  EXPECT_EQ(a.final_main_accuracy, b.final_main_accuracy);
  EXPECT_EQ(a.final_backdoor_accuracy, b.final_backdoor_accuracy);
  EXPECT_EQ(a.adaptive_skipped, b.adaptive_skipped);
}

TEST(Sweep, EnumerateCellsIsRowMajorWithComposedNames) {
  const auto cells = enumerate_cells(tiny_spec());
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].name, "lookback=6,q=2");
  EXPECT_EQ(cells[1].name, "lookback=6,q=3");
  EXPECT_EQ(cells[2].name, "lookback=8,q=2");
  EXPECT_EQ(cells[3].name, "lookback=8,q=3");
  EXPECT_EQ(cells[1].config.feedback.validator.lookback, 6u);
  EXPECT_EQ(cells[1].config.feedback.quorum, 3u);
  EXPECT_EQ(cells[3].config.feedback.validator.lookback, 8u);
  EXPECT_EQ(cells[3].config.feedback.quorum, 3u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].seed, sweep_cell_seed(5, i));
  }
}

TEST(Sweep, CellSeedsArePureAndDistinct) {
  // Seeds depend on nothing but (base_seed, index): same inputs, same
  // seed — and nearby indices land in unrelated stream regions.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(sweep_cell_seed(5, i), sweep_cell_seed(5, i));
    for (std::size_t j = i + 1; j < 64; ++j) {
      EXPECT_NE(sweep_cell_seed(5, i), sweep_cell_seed(5, j));
    }
  }
  EXPECT_NE(sweep_cell_seed(5, 0), sweep_cell_seed(6, 0));
}

TEST(Sweep, EmptyAxisAndZeroRepsThrow) {
  SweepSpec spec = tiny_spec();
  spec.axes[1].values.clear();
  EXPECT_THROW(enumerate_cells(spec), std::invalid_argument);
  SweepSpec no_reps = tiny_spec();
  no_reps.reps = 0;
  EXPECT_THROW(run_sweep(no_reps), std::invalid_argument);
}

TEST(Sweep, ParallelDriverMatchesSerialBitExact) {
  // Four workers, so the task-graph driver's cells really overlap.
  const ScopedGlobalPool pool(4);
  const SweepSpec spec = tiny_spec();
  const SweepResult parallel = run_sweep(spec, /*parallel=*/true);
  const SweepResult serial = run_sweep(spec, /*parallel=*/false);
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  for (std::size_t c = 0; c < parallel.cells.size(); ++c) {
    SCOPED_TRACE(parallel.cells[c].name);
    EXPECT_EQ(parallel.cells[c].name, serial.cells[c].name);
    ASSERT_EQ(parallel.cells[c].reps.size(), serial.cells[c].reps.size());
    for (std::size_t i = 0; i < spec.reps; ++i) {
      SCOPED_TRACE(i);
      expect_rows_identical(parallel.cells[c].reps[i],
                            serial.cells[c].reps[i]);
    }
    EXPECT_EQ(parallel.cells[c].fp.mean, serial.cells[c].fp.mean);
    EXPECT_EQ(parallel.cells[c].fn.mean, serial.cells[c].fn.mean);
  }
}

TEST(Sweep, SingleCellSweepMatchesRunRepeated) {
  // A one-cell sweep is exactly run_repeated seeded with the cell seed:
  // repetition i runs with cell_seed + i in both drivers.
  SweepSpec spec;
  spec.base = tiny_config();
  spec.axes = {{"lookback", {{"8", nullptr}}}};
  spec.reps = 2;
  spec.base_seed = 9;
  const SweepResult swept = run_sweep(spec);
  ASSERT_EQ(swept.cells.size(), 1u);
  const RepeatedResult repeated =
      run_repeated(spec.base, spec.reps, sweep_cell_seed(9, 0));
  for (std::size_t i = 0; i < spec.reps; ++i) {
    SCOPED_TRACE(i);
    const auto& row = swept.cells[0].reps[i];
    const auto& run = repeated.runs[i];
    EXPECT_EQ(row.rates.false_positives, run.rates.false_positives);
    EXPECT_EQ(row.rates.false_negatives, run.rates.false_negatives);
    EXPECT_EQ(row.final_main_accuracy, run.final_main_accuracy);
    EXPECT_EQ(row.final_backdoor_accuracy, run.final_backdoor_accuracy);
  }
  EXPECT_EQ(swept.cells[0].fp.mean, repeated.fp.mean);
  EXPECT_EQ(swept.cells[0].fn.mean, repeated.fn.mean);
}

TEST(Sweep, CsvEmittersWriteDeterministicTables) {
  const SweepSpec spec = tiny_spec();
  const SweepResult result = run_sweep(spec);
  const std::string dir = ::testing::TempDir();
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  write_sweep_csv(spec, result, dir + "/sweep_a.csv");
  write_sweep_csv(spec, result, dir + "/sweep_b.csv");
  const std::string agg = slurp(dir + "/sweep_a.csv");
  EXPECT_EQ(agg, slurp(dir + "/sweep_b.csv"));
  EXPECT_EQ(agg.substr(0, agg.find('\n')),
            "cell,lookback,q,reps,fp_mean,fp_std,fn_mean,fn_std,"
            "main_acc_mean,main_acc_std,backdoor_acc_mean,backdoor_acc_std");
  // One header + one row per cell, no timing columns anywhere.
  EXPECT_EQ(std::count(agg.begin(), agg.end(), '\n'),
            static_cast<std::ptrdiff_t>(1 + result.cells.size()));

  write_cell_csv(result.cells[0], dir + "/cell_a.csv");
  write_cell_csv(result.cells[0], dir + "/cell_b.csv");
  const std::string cell = slurp(dir + "/cell_a.csv");
  EXPECT_EQ(cell, slurp(dir + "/cell_b.csv"));
  EXPECT_EQ(std::count(cell.begin(), cell.end(), '\n'),
            static_cast<std::ptrdiff_t>(1 + spec.reps));
}

}  // namespace
}  // namespace baffle
