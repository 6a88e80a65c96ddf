#pragma once
// Every name the library records into MetricsRegistry::global(),
// declared once. baffle_sim and baffle_sweep print these metrics and
// e2ebench reads them by name, so the strings never change; a typo at
// a call site is a compile error instead of a new, silently empty
// metric. tools/baffle_lint.py fails on a string literal passed as a
// metric name anywhere else in src/ or tools/.

namespace baffle::metric {

// run_experiment: set-up laps and the three round phases (timers).
inline constexpr char kBuildScenario[] = "experiment.build_scenario";
inline constexpr char kPretrain[] = "experiment.pretrain";
inline constexpr char kDefenseInit[] = "experiment.defense_init";
inline constexpr char kRoundTrain[] = "experiment.round_train";
inline constexpr char kRoundEval[] = "experiment.round_eval";
inline constexpr char kRoundAccuracy[] = "experiment.round_accuracy";

// Validator (core/validate): the validate timer and its counters.
inline constexpr char kValidate[] = "validator.validate";
inline constexpr char kValidations[] = "validator.validations";
inline constexpr char kCandidateReuse[] = "validator.candidate_reuse";
inline constexpr char kModelMaterializations[] =
    "validator.model_materializations";
inline constexpr char kBatchedEvals[] = "validator.batched_evals";

// Validator (core/validate) profile counters. The names predate the
// validator's window record and are kept: Validator tallies them in
// ValidatorCounts (hits are profile reads, misses window models it had
// to evaluate), and a promotion is the same event as kCandidateReuse.
inline constexpr char kCacheHits[] = "prediction_cache.hits";
inline constexpr char kCacheMisses[] = "prediction_cache.misses";
inline constexpr char kCachePromotions[] = "prediction_cache.promotions";

// Evaluation engine (nn/multi_eval): bind and run timers, tile counter.
inline constexpr char kEngineBind[] = "multi_eval.bind";
inline constexpr char kEngineRun[] = "multi_eval.run";
inline constexpr char kEngineTiles[] = "multi_eval.tiles";

// Pool-split GEMMs (tensor/ops): timer and flop counter.
inline constexpr char kGemmLarge[] = "gemm.large";
inline constexpr char kGemmLargeFlops[] = "gemm.large_flops";

// Executor: sweep cells, experiment roots and help-draining waits.
inline constexpr char kSweepCells[] = "sweep.cells";
inline constexpr char kGraphTasks[] = "task_graph.tasks";
inline constexpr char kExperimentNode[] = "task_graph.node.experiment";
inline constexpr char kHelpDrained[] = "thread_pool.help_drained";

}  // namespace baffle::metric
