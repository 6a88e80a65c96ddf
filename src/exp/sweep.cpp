#include "exp/sweep.hpp"

#include <stdexcept>
#include <utility>

#include "util/csv.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/task_graph.hpp"

namespace baffle {

namespace {

MeanStd collect(const std::vector<SweepRepRow>& reps,
                double (*field)(const SweepRepRow&)) {
  std::vector<double> xs;
  xs.reserve(reps.size());
  for (const auto& row : reps) xs.push_back(field(row));
  return mean_std(xs);
}

void finalize_cell(SweepCellResult& cell) {
  cell.fp = collect(cell.reps,
                    [](const SweepRepRow& r) { return r.rates.fp_rate; });
  cell.fn = collect(cell.reps,
                    [](const SweepRepRow& r) { return r.rates.fn_rate; });
  cell.main_accuracy = collect(
      cell.reps, [](const SweepRepRow& r) { return r.final_main_accuracy; });
  cell.backdoor_accuracy =
      collect(cell.reps,
              [](const SweepRepRow& r) { return r.final_backdoor_accuracy; });
}

SweepRepRow compress(const ExperimentResult& run, std::uint64_t seed) {
  SweepRepRow row;
  row.seed = seed;
  row.rates = run.rates;
  row.final_main_accuracy = run.final_main_accuracy;
  row.final_backdoor_accuracy = run.final_backdoor_accuracy;
  row.adaptive_skipped = run.adaptive_skipped;
  return row;
}

}  // namespace

std::uint64_t sweep_cell_seed(std::uint64_t base_seed,
                              std::size_t cell_index) {
  // Golden-ratio spacing, then a split-mix finalizer: nearby indices map
  // to unrelated 64-bit streams, and the result depends on nothing but
  // the arguments (no scheduling, no time).
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  return Rng::split_mix(base_seed +
                        kGolden * (static_cast<std::uint64_t>(cell_index) + 1));
}

std::vector<SweepCell> enumerate_cells(const SweepSpec& spec) {
  std::size_t total = 1;
  for (const auto& axis : spec.axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("enumerate_cells: empty axis \"" +
                                  axis.name + "\"");
    }
    total *= axis.values.size();
  }
  std::vector<SweepCell> cells;
  cells.reserve(total);
  std::vector<std::size_t> coords(spec.axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    SweepCell cell;
    cell.index = index;
    cell.coords = coords;
    cell.config = spec.base;
    cell.seed = sweep_cell_seed(spec.base_seed, index);
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const SweepValue& value = spec.axes[a].values[coords[a]];
      if (!cell.name.empty()) cell.name += ',';
      cell.name += spec.axes[a].name + '=' + value.label;
      if (value.apply) value.apply(cell.config);
    }
    cells.push_back(std::move(cell));
    // Row-major increment: last axis fastest.
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++coords[a] < spec.axes[a].values.size()) break;
      coords[a] = 0;
    }
  }
  return cells;
}

SweepResult run_sweep(const SweepSpec& spec, bool parallel) {
  if (spec.reps == 0) throw std::invalid_argument("run_sweep: reps == 0");
  const std::vector<SweepCell> cells = enumerate_cells(spec);
  SweepResult result;
  result.cells.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SweepCellResult& out = result.cells[c];
    out.index = cells[c].index;
    out.name = cells[c].name;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      out.labels.push_back(spec.axes[a].values[cells[c].coords[a]].label);
    }
    out.reps.resize(spec.reps);
  }
  MetricsRegistry::global().add_counter(metric::kSweepCells, cells.size());

  if (parallel) {
    // Every cell×rep is an independent root; the fork-joins inside each
    // experiment's rounds nest inside these roots on the same pool.
    TaskGraph graph;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t i = 0; i < spec.reps; ++i) {
        graph.add(TaskNodeKind::kExperiment, [&, c, i] {
          const std::uint64_t seed =
              cells[c].seed + static_cast<std::uint64_t>(i);
          result.cells[c].reps[i] =
              compress(run_experiment(cells[c].config, seed), seed);
        });
      }
    }
    graph.wait_all();
  } else {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t i = 0; i < spec.reps; ++i) {
        const std::uint64_t seed =
            cells[c].seed + static_cast<std::uint64_t>(i);
        result.cells[c].reps[i] =
            compress(run_experiment(cells[c].config, seed), seed);
      }
    }
  }

  for (auto& cell : result.cells) finalize_cell(cell);
  return result;
}

void write_sweep_csv(const SweepSpec& spec, const SweepResult& result,
                     const std::string& path) {
  std::vector<std::string> header{"cell"};
  for (const auto& axis : spec.axes) header.push_back(axis.name);
  for (const char* col :
       {"reps", "fp_mean", "fp_std", "fn_mean", "fn_std", "main_acc_mean",
        "main_acc_std", "backdoor_acc_mean", "backdoor_acc_std"}) {
    header.emplace_back(col);
  }
  CsvWriter csv(path, std::move(header));
  for (const auto& cell : result.cells) {
    std::vector<std::string> row{std::to_string(cell.index)};
    for (const auto& label : cell.labels) row.push_back(label);
    row.push_back(std::to_string(cell.reps.size()));
    row.push_back(CsvWriter::num(cell.fp.mean));
    row.push_back(CsvWriter::num(cell.fp.std));
    row.push_back(CsvWriter::num(cell.fn.mean));
    row.push_back(CsvWriter::num(cell.fn.std));
    row.push_back(CsvWriter::num(cell.main_accuracy.mean));
    row.push_back(CsvWriter::num(cell.main_accuracy.std));
    row.push_back(CsvWriter::num(cell.backdoor_accuracy.mean));
    row.push_back(CsvWriter::num(cell.backdoor_accuracy.std));
    csv.row(row);
  }
}

void write_cell_csv(const SweepCellResult& cell, const std::string& path) {
  CsvWriter csv(path,
                {"rep", "seed", "fp_rate", "fn_rate", "false_positives",
                 "false_negatives", "clean_rounds", "poisoned_rounds",
                 "main_accuracy", "backdoor_accuracy", "adaptive_skipped"});
  for (std::size_t i = 0; i < cell.reps.size(); ++i) {
    const SweepRepRow& r = cell.reps[i];
    csv.row({std::to_string(i), std::to_string(r.seed),
             CsvWriter::num(r.rates.fp_rate), CsvWriter::num(r.rates.fn_rate),
             std::to_string(r.rates.false_positives),
             std::to_string(r.rates.false_negatives),
             std::to_string(r.rates.clean_rounds),
             std::to_string(r.rates.poisoned_rounds),
             CsvWriter::num(r.final_main_accuracy),
             CsvWriter::num(r.final_backdoor_accuracy),
             std::to_string(r.adaptive_skipped)});
  }
}

}  // namespace baffle
