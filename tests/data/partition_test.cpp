#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <numeric>

#include "data/synth.hpp"

namespace baffle {
namespace {

Dataset labeled_pool(std::size_t per_class, std::size_t classes) {
  Dataset d(1, classes);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      d.add(std::array{static_cast<float>(c * 1000 + i)},
            static_cast<int>(c));
    }
  }
  return d;
}

std::size_t total_size(const std::vector<Dataset>& shards) {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.size();
  return n;
}

TEST(DirichletPartition, CoversAllSamples) {
  const Dataset pool = labeled_pool(100, 5);
  Rng rng(1);
  const auto shards = dirichlet_partition(pool, 10, 0.9, rng);
  EXPECT_EQ(shards.size(), 10u);
  EXPECT_EQ(total_size(shards), pool.size());
}

TEST(DirichletPartition, PerClassTotalsPreserved) {
  const Dataset pool = labeled_pool(50, 4);
  Rng rng(2);
  const auto shards = dirichlet_partition(pool, 7, 0.9, rng);
  std::vector<std::size_t> per_class(4, 0);
  for (const auto& s : shards) {
    const auto counts = s.class_counts();
    for (std::size_t c = 0; c < 4; ++c) per_class[c] += counts[c];
  }
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(per_class[c], 50u);
}

TEST(DirichletPartition, SmallAlphaIsMoreSkewedThanLargeAlpha) {
  const Dataset pool = labeled_pool(200, 5);
  Rng rng1(3), rng2(3);
  const auto skewed = dirichlet_partition(pool, 10, 0.05, rng1);
  const auto balanced = dirichlet_partition(pool, 10, 100.0, rng2);

  // Measure skew as the mean (over clients) of max class share.
  auto skew = [](const std::vector<Dataset>& shards) {
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& s : shards) {
      if (s.empty()) continue;
      const auto counts = s.class_counts();
      const auto mx = *std::max_element(counts.begin(), counts.end());
      total += static_cast<double>(mx) / static_cast<double>(s.size());
      ++counted;
    }
    return total / static_cast<double>(counted);
  };
  EXPECT_GT(skew(skewed), skew(balanced) + 0.1);
}

TEST(DirichletPartition, RejectsZeroClients) {
  const Dataset pool = labeled_pool(10, 2);
  Rng rng(4);
  EXPECT_THROW(dirichlet_partition(pool, 0, 0.9, rng),
               std::invalid_argument);
}

TEST(DirichletPartition, Deterministic) {
  const Dataset pool = labeled_pool(30, 3);
  Rng a(5), b(5);
  const auto sa = dirichlet_partition(pool, 5, 0.9, a);
  const auto sb = dirichlet_partition(pool, 5, 0.9, b);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sa[i].size(), sb[i].size());
  }
}

TEST(IidPartition, NearEqualSizes) {
  const Dataset pool = labeled_pool(20, 5);  // 100 samples
  Rng rng(6);
  const auto shards = iid_partition(pool, 8, rng);
  EXPECT_EQ(total_size(shards), 100u);
  for (const auto& s : shards) {
    EXPECT_GE(s.size(), 12u);
    EXPECT_LE(s.size(), 13u);
  }
}

TEST(IidPartition, ClassBalancePerShard) {
  const Dataset pool = labeled_pool(400, 2);
  Rng rng(7);
  const auto shards = iid_partition(pool, 4, rng);
  for (const auto& s : shards) {
    const auto counts = s.class_counts();
    const double share =
        static_cast<double>(counts[0]) / static_cast<double>(s.size());
    EXPECT_NEAR(share, 0.5, 0.1);
  }
}

TEST(SplitClientServer, FractionRespected) {
  const Dataset pool = labeled_pool(100, 2);
  Rng rng(8);
  const auto split = split_client_server(pool, 0.1, rng);
  EXPECT_EQ(split.server_holdout.size(), 20u);
  EXPECT_EQ(split.client_pool.size(), 180u);
}

TEST(SplitClientServer, RejectsBadFraction) {
  const Dataset pool = labeled_pool(10, 2);
  Rng rng(9);
  EXPECT_THROW(split_client_server(pool, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(split_client_server(pool, -0.01, rng), std::invalid_argument);
  EXPECT_THROW(split_client_server(
                   pool, std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
}

TEST(SplitClientServer, ZeroFractionGivesEmptyHoldout) {
  const Dataset pool = labeled_pool(10, 2);
  Rng rng(10);
  const auto split = split_client_server(pool, 0.0, rng);
  EXPECT_TRUE(split.server_holdout.empty());
  EXPECT_EQ(split.client_pool.size(), 20u);
}

}  // namespace
}  // namespace baffle
