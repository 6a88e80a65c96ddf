#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

namespace baffle {
namespace {

Dataset make_small() {
  Dataset d(2, 3);
  d.add(std::array{1.0f, 2.0f}, 0);
  d.add(std::array{3.0f, 4.0f}, 1);
  d.add(std::array{5.0f, 6.0f}, 2);
  d.add(std::array{7.0f, 8.0f}, 1);
  return d;
}

TEST(Dataset, AddValidatesDimAndLabel) {
  Dataset d(2, 3);
  EXPECT_THROW(d.add(std::array{1.0f}, 0), std::invalid_argument);
  EXPECT_THROW(d.add(std::array{1.0f, 2.0f}, 3), std::invalid_argument);
  EXPECT_THROW(d.add(std::array{1.0f, 2.0f}, -1), std::invalid_argument);
  EXPECT_NO_THROW(d.add(std::array{1.0f, 2.0f}, 2));
}

TEST(Dataset, FeaturesAndLabelsAligned) {
  const Dataset d = make_small();
  const Matrix& x = d.features();
  const auto& y = d.labels();
  ASSERT_EQ(x.rows(), 4u);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_EQ(x.at(1, 0), 3.0f);
  EXPECT_EQ(y[1], 1);
}

TEST(Dataset, FeaturesAreCachedAcrossCalls) {
  const Dataset d = make_small();
  // Same buffers on repeated calls: no per-evaluation copy.
  EXPECT_EQ(&d.features(), &d.features());
  EXPECT_EQ(&d.labels(), &d.labels());
  EXPECT_EQ(d.features().flat().data(), d.features().flat().data());
}

TEST(Dataset, ConcurrentColdReadersShareOneCacheFill) {
  // Many validators read the same shard's features()/labels() in
  // parallel (TSan covers the interleaving via test_data in the
  // sanitizer leg): const access takes no lock and writes nothing, and
  // every reader sees the same rows.
  Dataset d(2, 3);
  for (int i = 0; i < 64; ++i) {
    d.add(std::array{static_cast<float>(i), static_cast<float>(2 * i)},
          i % 3);
  }
  std::atomic<int> consistent{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      const Matrix& x = d.features();
      const auto& y = d.labels();
      if (x.rows() == 64 && y.size() == 64 && x.at(5, 0) == 5.0f &&
          x.at(7, 1) == 14.0f && y[8] == 2) {
        consistent.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(consistent.load(), 4);
  // One shared store: repeat calls return the same buffers.
  EXPECT_EQ(&d.features(), &d.features());
  EXPECT_EQ(&d.labels(), &d.labels());
}

TEST(Dataset, AddInvalidatesCache) {
  Dataset d = make_small();
  EXPECT_EQ(d.features().rows(), 4u);
  d.add(std::array{9.0f, 10.0f}, 0);
  EXPECT_EQ(d.features().rows(), 5u);
  EXPECT_EQ(d.features().at(4, 0), 9.0f);
  EXPECT_EQ(d.labels().size(), 5u);
}

TEST(Dataset, MergeInvalidatesCache) {
  Dataset d = make_small();
  EXPECT_EQ(d.features().rows(), 4u);
  d.merge(make_small());
  EXPECT_EQ(d.features().rows(), 8u);
  EXPECT_EQ(d.features().at(4, 0), 1.0f);
}

TEST(Dataset, ShuffleInvalidatesCache) {
  Dataset d(2, 2);
  for (int i = 0; i < 32; ++i) {
    d.add(std::array{static_cast<float>(i), 0.0f}, i % 2);
  }
  const Matrix before = d.features();  // deliberate copy
  Rng rng(3);
  d.shuffle(rng);
  const Matrix& after = d.features();
  ASSERT_EQ(after.rows(), before.rows());
  bool moved = false;
  for (std::size_t r = 0; r < after.rows() && !moved; ++r) {
    moved = after.at(r, 0) != before.at(r, 0);
  }
  EXPECT_TRUE(moved);
  // Rows still pair with their labels after the reshuffle.
  for (std::size_t r = 0; r < after.rows(); ++r) {
    EXPECT_EQ(d.labels()[r], static_cast<int>(after.at(r, 0)) % 2);
  }
}

TEST(Dataset, CopyIsIndependentOfOriginalCache) {
  Dataset d = make_small();
  Dataset copy = d;
  copy.add(std::array{9.0f, 9.0f}, 0);
  EXPECT_EQ(copy.features().rows(), 5u);
  EXPECT_EQ(d.features().rows(), 4u);
  EXPECT_NE(copy.features().flat().data(), d.features().flat().data());
}

TEST(Dataset, ClassCounts) {
  const Dataset d = make_small();
  const auto counts = d.class_counts();
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(Dataset, SubsetSelectsByIndex) {
  const Dataset d = make_small();
  const std::vector<std::size_t> idx{3, 0};
  const Dataset s = d.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.y(0), 1);
  EXPECT_EQ(s.y(1), 0);
}

TEST(Dataset, SubsetOutOfRangeThrows) {
  const Dataset d = make_small();
  const std::vector<std::size_t> idx{99};
  EXPECT_THROW(d.subset(idx), std::out_of_range);
}

TEST(Dataset, MergeRequiresCompatibleShape) {
  Dataset d = make_small();
  Dataset incompatible(3, 3);
  EXPECT_THROW(d.merge(incompatible), std::invalid_argument);
  Dataset other(2, 3);
  other.add(std::array{0.0f, 0.0f}, 0);
  d.merge(other);
  EXPECT_EQ(d.size(), 5u);
}

TEST(Dataset, SplitPartitionsAll) {
  Dataset d(1, 2);
  for (int i = 0; i < 100; ++i) {
    d.add(std::array{static_cast<float>(i)}, i % 2);
  }
  Rng rng(1);
  const auto [a, b] = d.split(0.3, rng);
  EXPECT_EQ(a.size(), 30u);
  EXPECT_EQ(b.size(), 70u);
}

TEST(Dataset, SplitRejectsBadFraction) {
  const Dataset d = make_small();
  Rng rng(1);
  EXPECT_THROW(d.split(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(d.split(1.1, rng), std::invalid_argument);
  EXPECT_THROW(d.split(std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
}

TEST(Dataset, SplitIsDisjointCover) {
  Dataset d(1, 2);
  for (int i = 0; i < 50; ++i) d.add(std::array{static_cast<float>(i)}, 0);
  Rng rng(2);
  const auto [a, b] = d.split(0.5, rng);
  std::vector<float> seen;
  for (std::size_t i = 0; i < a.size(); ++i) seen.push_back(a.x(i)[0]);
  for (std::size_t i = 0; i < b.size(); ++i) seen.push_back(b.x(i)[0]);
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seen[i], static_cast<float>(i));
}

TEST(Dataset, SampleDrawsDistinct) {
  Dataset d(1, 2);
  for (int i = 0; i < 20; ++i) d.add(std::array{static_cast<float>(i)}, 0);
  Rng rng(3);
  const Dataset s = d.sample(5, rng);
  EXPECT_EQ(s.size(), 5u);
  std::set<float> unique;
  for (std::size_t i = 0; i < s.size(); ++i) unique.insert(s.x(i)[0]);
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Dataset, ShufflePreservesContent) {
  Dataset d = make_small();
  Rng rng(4);
  auto counts_before = d.class_counts();
  d.shuffle(rng);
  EXPECT_EQ(d.class_counts(), counts_before);
  EXPECT_EQ(d.size(), 4u);
}

}  // namespace
}  // namespace baffle
