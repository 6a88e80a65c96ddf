#include "exp/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace baffle {
namespace {

TEST(Report, FormatMeanStd) {
  EXPECT_EQ(format_mean_std({0.021, 0.017}), "0.021 +/- 0.017");
  EXPECT_EQ(format_mean_std({0.0, 0.0}, 1), "0.0 +/- 0.0");
}

TEST(Report, FormatRate) {
  EXPECT_EQ(format_rate(0.5), "0.500");
  EXPECT_EQ(format_rate(1.0, 1), "1.0");
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.row({"xxxxx", "y"});
  const std::string out = t.render();
  // Header, separator, one row.
  EXPECT_NE(out.find("a      bbbb"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("xxxxx  y"), std::string::npos);
}

TEST(Report, TextTableRejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.row({"only"}), std::invalid_argument);
}

TEST(Report, BenchRepsEnvOverride) {
  setenv("BAFFLE_BENCH_REPS", "7", 1);
  EXPECT_EQ(bench_reps(), 7u);
  // A value that is not a whole number in [1, 1024] fails closed: no
  // silent default, no prefix parse.
  for (const char* bad : {"7x", "bogus", "0", "-2", ""}) {
    SCOPED_TRACE(bad);
    setenv("BAFFLE_BENCH_REPS", bad, 1);
    try {
      bench_reps();
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "BAFFLE_BENCH_REPS=" + std::string(bad) + ": ", 0),
                0u)
          << e.what();
    }
  }
  unsetenv("BAFFLE_BENCH_REPS");
  EXPECT_EQ(bench_reps(), 3u);
}

}  // namespace
}  // namespace baffle
