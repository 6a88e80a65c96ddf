#pragma once
// Report formatting shared by the bench binaries: paper-style
// "mean ± std" cells, aligned text tables, and the repetition-count
// knob.

#include <string>
#include <vector>

#include "util/stats.hpp"

namespace baffle {

/// "0.021 ± 0.017" (matching the paper's table cells).
std::string format_mean_std(const MeanStd& value, int precision = 3);

std::string format_rate(double value, int precision = 3);

/// Fixed-width text table: first row is the header.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void row(std::vector<std::string> cells);
  /// Renders with column alignment and a header separator.
  std::string render() const;

 private:
  std::vector<std::vector<std::string>> rows_;
  std::size_t width_;
};

/// Number of repeated runs per configuration: BAFFLE_BENCH_REPS, or 3
/// when it is unset (the paper uses 5). A value parse_env_count rejects
/// throws std::invalid_argument "BAFFLE_BENCH_REPS=value: reason".
std::size_t bench_reps();

}  // namespace baffle
