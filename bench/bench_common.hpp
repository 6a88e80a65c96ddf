#pragma once
// Shared configuration helpers for the reproduction benches. Each bench
// binary regenerates one table or figure of the paper; the knobs here
// pin the common experimental setup of §VI-A/§VI-B so benches differ
// only in the parameter being swept.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

/// Bench-run header. Lives with the benches (not exp/report) because
/// library code keeps no console I/O; every bench owns its stdout.
/// Every paper driver calls it first, so a BAFFLE_THREADS that sizing
/// the pool rejects, or a BAFFLE_BENCH_REPS that bench_reps() rejects,
/// ends the run here, before the driver opens its CSV: one line on
/// stderr, exit 2.
inline void print_banner(const std::string& title,
                         const std::string& paper_ref) {
  std::size_t reps = 0;
  try {
    ThreadPool::global();
    reps = bench_reps();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    std::exit(2);
  }
  std::cout << "==============================================\n"
            << title << '\n'
            << "reproduces: " << paper_ref << '\n'
            << "reps=" << reps << '\n'
            << "==============================================\n";
}

}  // namespace baffle

namespace baffle::bench {

/// The paper's data splits per dataset (client share - server share).
inline std::vector<double> server_fractions(TaskKind task) {
  if (task == TaskKind::kVision10) {
    return {0.10, 0.05, 0.01};  // 90-10%, 95-5%, 99-1%
  }
  return {0.01, 0.005, 0.001};  // 99-1%, 99.5-0.5%, 99.9-0.1%
}

inline std::string split_name(TaskKind task, double server_fraction) {
  const double client = (1.0 - server_fraction) * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g-%g%%", client,
                server_fraction * 100.0);
  (void)task;
  return buf;
}

/// Stable-model scenario (§VI-B case 1): pre-trained global model, 50
/// rounds, defense verdicts enforced from round 20, injections at
/// 30/35/40.
inline ExperimentConfig stable_config(TaskKind task, double server_fraction,
                                      DefenseMode mode, std::size_t lookback,
                                      std::size_t quorum) {
  ExperimentConfig cfg;
  cfg.scenario = task == TaskKind::kVision10
                     ? vision_scenario(server_fraction)
                     : femnist_scenario(server_fraction);
  cfg.feedback.mode = mode;
  cfg.feedback.quorum = quorum;
  cfg.feedback.validator.lookback = lookback;
  cfg.schedule = AttackSchedule::stable_scenario();
  cfg.rounds = 50;
  cfg.defense_start = 20;
  cfg.track_accuracy = false;
  if (task == TaskKind::kFemnist62) {
    cfg.pretrain_epochs = 15;  // reaches the stable regime; see DESIGN.md
  }
  return cfg;
}

inline const char* mode_short(DefenseMode mode) {
  switch (mode) {
    case DefenseMode::kClientsOnly: return "C";
    case DefenseMode::kServerOnly: return "S";
    case DefenseMode::kClientsAndServer: return "C+S";
  }
  return "?";
}

/// Output directory for the CSV twins of the printed tables.
inline std::string csv_path(const std::string& name) {
  return "bench_" + name + ".csv";
}

}  // namespace baffle::bench
