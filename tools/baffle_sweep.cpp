// baffle_sweep — scenario×seed grid sweep driver (DESIGN.md §15).
//
// Expands the cross-product of the requested axes, runs every cell for
// --reps repetitions on the task-graph executor, and writes one CSV per
// cell plus an aggregate sweep_results.csv. Per-cell results are
// bit-identical across pool sizes (seeds are a pure function of cell
// index); BAFFLE_THREADS=1 runs every cell on one worker.
//
//   baffle_sweep                                     # default tiny grid
//   baffle_sweep --lookback=8,12,20 --q=3,5 --reps=5
//   baffle_sweep --alpha=0.3,0.9 --dropout=0,0.2 --out-dir=sweep_out
//
// Run with --help for the full flag list.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "exp/sweep.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace baffle;

constexpr const char* kHelp =
    "baffle_sweep — scenario grid sweep on the task-graph executor\n"
    "\n"
    "axes (comma-separated value lists; each flag adds one axis):\n"
    "  --lookback=a,b,...         history window l values\n"
    "  --q=a,b,...                quorum threshold values\n"
    "  --alpha=a,b,...            Dirichlet non-IID parameter values\n"
    "  --dropout=a,b,...          validator non-response probabilities\n"
    "  (no axis flags: default grid lookback=12,20 x q=3,5)\n"
    "base config:\n"
    "  --task=vision|femnist      dataset surrogate (vision)\n"
    "  --clients=N                population size (preset)\n"
    "  --rounds=N                 total rounds (50)\n"
    "  --defense-start=N          first enforced round (20)\n"
    "  --train-per-class=N        shrink the train split (speed knob)\n"
    "  --poison-rounds=a,b,c      injection rounds (preset)\n"
    "run:\n"
    "  --reps=N                   repetitions per cell (5)\n"
    "  --seed=N                   sweep base seed (1)\n"
    "  --out-dir=PATH             CSV output directory (.)\n"
    "  --quiet=1                  suppress the per-cell table\n"
    "  --metrics=PATH             dump runtime metrics CSV on exit";

SweepAxis size_axis(const cli::Flags& flags, const std::string& name,
                    const std::string& fallback,
                    void (*set)(ExperimentConfig&, std::size_t)) {
  SweepAxis axis{name, {}};
  for (const auto& token : flags.list(name, fallback)) {
    const std::size_t v = flags.to_count(name, token);
    axis.values.push_back({token, [set, v](ExperimentConfig& c) { set(c, v); }});
  }
  return axis;
}

SweepAxis real_axis(const cli::Flags& flags, const std::string& name,
                    void (*set)(ExperimentConfig&, double)) {
  SweepAxis axis{name, {}};
  for (const auto& token : flags.list(name)) {
    const double v = flags.to_real(name, token);
    axis.values.push_back({token, [set, v](ExperimentConfig& c) { set(c, v); }});
  }
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags;
  if (const auto exit_code = cli::parse_flags(argc, argv, kHelp, flags)) {
    return *exit_code;
  }

  SweepSpec spec;
  const TaskKind task = flags.choice(
      "task", TaskKind::kVision10,
      {{"vision", TaskKind::kVision10}, {"femnist", TaskKind::kFemnist62}});
  spec.base.scenario = task == TaskKind::kFemnist62 ? femnist_scenario(0.01)
                                                    : vision_scenario(0.10);
  if (flags.has("clients")) {
    spec.base.scenario.num_clients = flags.count("clients", 50);
  }
  if (flags.has("train-per-class")) {
    spec.base.scenario.train_per_class_override =
        flags.count("train-per-class", 0);
  }
  spec.base.rounds = flags.count("rounds", 50);
  spec.base.defense_start = flags.count("defense-start", 20);
  spec.base.schedule = AttackSchedule::stable_scenario();
  if (flags.has("poison-rounds")) {
    spec.base.schedule.poison_rounds = flags.counts("poison-rounds");
  }
  spec.reps = flags.count("reps", 5);
  spec.base_seed = static_cast<std::uint64_t>(flags.integer("seed", 1));

  const bool default_grid = !flags.has("lookback") && !flags.has("q") &&
                            !flags.has("alpha") && !flags.has("dropout");
  if (flags.has("lookback") || default_grid) {
    spec.axes.push_back(size_axis(
        flags, "lookback", "12,20", [](ExperimentConfig& c, std::size_t v) {
          c.feedback.validator.lookback = v;
        }));
  }
  if (flags.has("q") || default_grid) {
    spec.axes.push_back(size_axis(
        flags, "q", "3,5",
        [](ExperimentConfig& c, std::size_t v) { c.feedback.quorum = v; }));
  }
  if (flags.has("alpha")) {
    spec.axes.push_back(
        real_axis(flags, "alpha", [](ExperimentConfig& c, double v) {
          c.scenario.dirichlet_alpha = v;
        }));
  }
  if (flags.has("dropout")) {
    spec.axes.push_back(real_axis(
        flags, "dropout",
        [](ExperimentConfig& c, double v) { c.validator_dropout = v; }));
  }

  const bool quiet = flags.flag("quiet", false);
  const std::string out_dir = flags.str("out-dir", ".");

  std::size_t grid = 1;
  for (const auto& axis : spec.axes) grid *= axis.values.size();

  try {
    // Inside the try: the first global() call builds the pool, and a
    // rejected BAFFLE_THREADS throws there.
    std::printf("baffle_sweep: task=%s grid=%zu cells x %zu reps, "
                "seed=%llu, task-graph driver, %zu threads\n",
                flags.str("task", "vision").c_str(), grid, spec.reps,
                static_cast<unsigned long long>(spec.base_seed),
                ThreadPool::global().size());
    std::filesystem::create_directories(out_dir);
    const SweepResult result = run_sweep(spec);

    for (const auto& cell : result.cells) {
      if (!quiet) {
        std::printf("  [%2zu] %-40s fp %.3f±%.3f  fn %.3f±%.3f  "
                    "acc %.3f  bd %.3f\n",
                    cell.index, cell.name.c_str(), cell.fp.mean, cell.fp.std,
                    cell.fn.mean, cell.fn.std, cell.main_accuracy.mean,
                    cell.backdoor_accuracy.mean);
      }
      write_cell_csv(cell, out_dir + "/cell_" + std::to_string(cell.index) +
                               ".csv");
    }
    write_sweep_csv(spec, result, out_dir + "/sweep_results.csv");
    std::printf("results: %s/sweep_results.csv (+%zu per-cell files)\n",
                out_dir.c_str(), result.cells.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baffle_sweep: %s\n", e.what());
    return 1;
  }

  const auto& registry = MetricsRegistry::global();
  std::printf("executor: %llu graph tasks (%llu help-drained) — "
              "experiment %.2f ms\n",
              static_cast<unsigned long long>(
                  registry.counter(metric::kGraphTasks)),
              static_cast<unsigned long long>(
                  registry.counter(metric::kHelpDrained)),
              registry.timer_mean_ms(metric::kExperimentNode));
  if (flags.has("metrics")) {
    const std::string path = flags.str("metrics", "metrics.csv");
    try {
      registry.dump_csv(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "baffle_sweep: --metrics failed: %s\n", e.what());
      return 1;
    }
    std::printf("metrics written to %s\n", path.c_str());
  }
  return 0;
}
