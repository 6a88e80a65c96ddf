#pragma once
// Fixture copy of the one header allowed to spell metric names; the
// linter must NOT flag it, nor a call site passing its constants.

namespace fixture::metric {
inline constexpr char kRoundEval[] = "experiment.round_eval";
}  // namespace fixture::metric
