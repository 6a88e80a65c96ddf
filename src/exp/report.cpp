#include "exp/report.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace baffle {

std::string format_mean_std(const MeanStd& value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value.mean << " +/- " << value.std;
  return os.str();
}

std::string format_rate(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

TextTable::TextTable(std::vector<std::string> header)
    : width_(header.size()) {
  rows_.push_back(std::move(header));
}

void TextTable::row(std::vector<std::string> cells) {
  if (cells.size() != width_) {
    throw std::invalid_argument("TextTable: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(width_, 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < width_; ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < width_; ++c) {
      os << rows_[r][c];
      if (c + 1 < width_) {
        os << std::string(widths[c] - rows_[r][c].size() + 2, ' ');
      }
    }
    os << '\n';
    if (r == 0) {
      std::size_t total = 0;
      for (std::size_t c = 0; c < width_; ++c) total += widths[c] + 2;
      os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    }
  }
  return os.str();
}

std::size_t bench_reps() {
  const char* env = std::getenv("BAFFLE_BENCH_REPS");
  return env == nullptr
             ? 3
             : parse_env_count("BAFFLE_BENCH_REPS", "repetition count", env);
}

}  // namespace baffle
