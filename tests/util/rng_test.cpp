#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <set>

namespace baffle {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  // The engine is std::mt19937_64 seeded with split_mix(seed): the same
  // words, through eleven twists.
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 5489ULL, ~0ULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(Rng::split_mix(seed));
    for (std::size_t i = 0; i < 11 * kernels::kMtWords; ++i) {
      ASSERT_EQ(rng.next_u64(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, NormalsMatchStdNormalDistribution) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "std::normal_distribution is implementation-defined; "
                  "Rng reproduces libstdc++'s";
#else
  // normal() and every value of normals() equal a fresh
  // std::normal_distribution's draw from std's engine, bit for bit.
  // Batches of 1-40 draws interleaved with one-word uniform_int and
  // bernoulli draws start at either word parity and straddle many
  // twists; the final word shows both consumed the same count.
  struct Params {
    double mean, stddev;
  };
  const Params params[] = {{0.0, 1.0}, {0.0, 0.95}, {3.0, 2.0}, {-1.5, 0.25}};
  for (const std::uint64_t seed : {3ULL, 77ULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(Rng::split_mix(seed));
    const auto ref_normal = [&ref](const Params& p) {
      std::normal_distribution<double> dist(p.mean, p.stddev);
      return std::bit_cast<std::uint64_t>(dist(ref));
    };
    std::vector<double> out;
    for (std::size_t round = 0; round < 400; ++round) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " round "
                                        << round);
      const Params& p = params[round % std::size(params)];
      out.assign(1 + round % 40, 0.0);
      rng.normals(out, p.mean, p.stddev);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]), ref_normal(p))
            << "normals value " << i << " of " << out.size();
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.normal(p.mean, p.stddev)),
                ref_normal(p));
      ASSERT_EQ(rng.uniform_int(0, 9),
                std::uniform_int_distribution<std::int64_t>(0, 9)(ref));
      if (round % 3 == 0) {
        ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
      }
    }
    ASSERT_EQ(rng.next_u64(), ref());
  }
#endif
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(7);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 500 draws
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRejectsProbabilitiesOutsideUnitInterval) {
  Rng rng(6);
  for (const double p : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(p);
    EXPECT_THROW(rng.bernoulli(p), std::invalid_argument);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(9);
  const std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.categorical(w), 1u);
  }
}

TEST(Rng, CategoricalEmpiricalFrequencies) {
  Rng rng(13);
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.categorical(w) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.03);
}

TEST(Rng, CategoricalRejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.categorical(zeros), std::invalid_argument);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(17);
  for (double alpha : {0.1, 0.9, 10.0}) {
    const auto p = rng.dirichlet(8, alpha);
    ASSERT_EQ(p.size(), 8u);
    EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
    for (double x : p) EXPECT_GE(x, 0.0);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng(19);
  // With alpha = 0.05, most mass should concentrate on few categories.
  double max_total = 0.0;
  const int reps = 200;
  for (int i = 0; i < reps; ++i) {
    const auto p = rng.dirichlet(10, 0.05);
    max_total += *std::max_element(p.begin(), p.end());
  }
  EXPECT_GT(max_total / reps, 0.6);
}

TEST(Rng, DirichletLargeAlphaIsBalanced) {
  Rng rng(23);
  double max_total = 0.0;
  const int reps = 200;
  for (int i = 0; i < reps; ++i) {
    const auto p = rng.dirichlet(10, 100.0);
    max_total += *std::max_element(p.begin(), p.end());
  }
  EXPECT_LT(max_total / reps, 0.2);
}

TEST(Rng, DirichletRejectsBadArgs) {
  Rng rng(1);
  EXPECT_THROW(rng.dirichlet(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.dirichlet(3, 0.0), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (int rep = 0; rep < 50; ++rep) {
    const auto idx = rng.sample_without_replacement(30, 10);
    ASSERT_EQ(idx.size(), 10u);
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 10u);
    for (std::size_t i : idx) EXPECT_LT(i, 30u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  const auto idx = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(37);
  std::vector<int> hits(10, 0);
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    for (std::size_t j : rng.sample_without_replacement(10, 3)) {
      hits[j]++;
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / reps, 0.3, 0.02);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v{1, 2, 2, 3, 4, 5};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependentOfParentAdvance) {
  Rng parent1(99), parent2(99);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  // Advancing parent after forking must not change the child stream.
  parent1.next_u64();
  parent1.next_u64();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(Rng, ForkedChildrenDiffer) {
  Rng parent(99);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitMixAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t a = Rng::split_mix(0x1234);
  const std::uint64_t b = Rng::split_mix(0x1235);
  const int bits = std::popcount(a ^ b);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

}  // namespace
}  // namespace baffle
