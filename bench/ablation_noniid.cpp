// Ablation A3: how the severity of the non-IID split (Dirichlet α)
// affects detection and the client vote split. The paper argues the
// defense must NOT rely on simple majority precisely because non-IID
// clients judge imperfectly (ρ > 0); this sweep quantifies that.

#include <cstdio>

#include "bench_common.hpp"

using namespace baffle;

int main() {
  print_banner("Ablation — non-IID severity (Dirichlet alpha sweep)",
               "BaFFLe (ICDCS'21), §IV-B rho discussion");

  const std::size_t reps = bench_reps();
  CsvWriter csv(bench::csv_path("ablation_noniid"),
                {"alpha", "fp_mean", "fn_mean", "mean_reject_votes_poisoned",
                 "mean_reject_votes_clean"});
  TextTable table({"alpha", "FP rate", "FN rate", "votes|poisoned",
                   "votes|clean"});

  const std::vector<double> alphas{0.1, 0.5, 0.9, 10.0};
  for (double alpha : alphas) {
    ExperimentConfig cfg = bench::stable_config(
        TaskKind::kVision10, 0.10, DefenseMode::kClientsAndServer, 20, 5);
    cfg.scenario.dirichlet_alpha = alpha;
    const auto rep = run_repeated(cfg, reps, 13000);

    double votes_poisoned = 0.0, votes_clean = 0.0;
    std::size_t n_poisoned = 0, n_clean = 0;
    for (const auto& run : rep.runs) {
      for (const auto& r : run.rounds) {
        if (!r.defense_active) continue;
        if (r.poisoned) {
          votes_poisoned += static_cast<double>(r.reject_votes);
          ++n_poisoned;
        } else {
          votes_clean += static_cast<double>(r.reject_votes);
          ++n_clean;
        }
      }
    }
    if (n_poisoned > 0) votes_poisoned /= static_cast<double>(n_poisoned);
    if (n_clean > 0) votes_clean /= static_cast<double>(n_clean);

    table.row({format_rate(alpha, 1), format_mean_std(rep.fp),
               format_mean_std(rep.fn), format_rate(votes_poisoned, 2),
               format_rate(votes_clean, 2)});
    csv.row({CsvWriter::num(alpha), CsvWriter::num(rep.fp.mean),
             CsvWriter::num(rep.fn.mean), CsvWriter::num(votes_poisoned),
             CsvWriter::num(votes_clean)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nexpected: harsher skew (small alpha) lowers the reject-vote count\n"
      "on poisoned rounds (more honest-but-wrong validators, higher rho)\n"
      "while detection survives because the quorum only needs q of n\n"
      "votes, not unanimity. CSV: %s\n",
      bench::csv_path("ablation_noniid").c_str());
  return 0;
}
