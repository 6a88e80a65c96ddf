// Table I: FP/FN rates of BAFFLE-C / BAFFLE-S / BAFFLE for look-back
// window ℓ ∈ {10, 20, 30} across the paper's client/server data splits,
// on both datasets. Mean ± std over BAFFLE_BENCH_REPS seeded runs
// (paper: 5).

#include <cstdio>

#include "bench_common.hpp"

using namespace baffle;

int main() {
  print_banner("Table I — detection rates vs look-back window ℓ",
               "BaFFLe (ICDCS'21), Table I");

  const std::size_t reps = bench_reps();
  const std::vector<std::size_t> lookbacks{10, 20, 30};
  const std::vector<std::pair<DefenseMode, const char*>> modes{
      {DefenseMode::kClientsOnly, "C"},
      {DefenseMode::kServerOnly, "S"},
      {DefenseMode::kClientsAndServer, "C+S"}};

  CsvWriter csv(bench::csv_path("table1"),
                {"dataset", "split", "lookback", "mode", "fp_mean", "fp_std",
                 "fn_mean", "fn_std"});

  for (TaskKind task : {TaskKind::kVision10, TaskKind::kFemnist62}) {
    std::printf("\n=== dataset: %s ===\n", task_kind_name(task));
    TextTable table({"split", "l", "mode", "FP rate", "FN rate"});
    for (double sfrac : bench::server_fractions(task)) {
      for (std::size_t ell : lookbacks) {
        for (const auto& [mode, mode_name] : modes) {
          const ExperimentConfig cfg =
              bench::stable_config(task, sfrac, mode, ell, /*quorum=*/5);
          const RepeatedResult rep = run_repeated(cfg, reps, 1000);
          table.row({bench::split_name(task, sfrac), std::to_string(ell),
                     mode_name, format_mean_std(rep.fp),
                     format_mean_std(rep.fn)});
          csv.row({task_kind_name(task), bench::split_name(task, sfrac),
                   std::to_string(ell), mode_name,
                   CsvWriter::num(rep.fp.mean), CsvWriter::num(rep.fp.std),
                   CsvWriter::num(rep.fn.mean), CsvWriter::num(rep.fn.std)});
        }
      }
    }
    std::printf("%s", table.render().c_str());
  }

  std::printf(
      "\npaper shape: feedback-loop configurations (C, C+S) keep FP in\n"
      "0-0.05 and FN near 0 for l>=20; server-only shows markedly higher\n"
      "FP (~0.1-0.2). CSV: %s\n",
      bench::csv_path("table1").c_str());
  return 0;
}
