#pragma once
// Deterministic random-number utilities.
//
// Every stochastic component of the library takes an explicit `Rng&` so
// that experiments are reproducible from a single seed. `Rng::fork()`
// derives statistically independent child generators (SplitMix64 over the
// parent stream), which lets client-local work run on a thread pool
// without making results depend on scheduling order.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace baffle {

/// Seeded pseudo-random generator wrapping mt19937_64 with the sampling
/// helpers used across the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(split_mix(seed)) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (optionally scaled/shifted).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p; throws
  /// std::invalid_argument unless p is in [0, 1] (NaN included).
  bool bernoulli(double p);

  /// Index sampled from an (unnormalized) weight vector.
  std::size_t categorical(std::span<const double> weights);

  /// Sample from Dirichlet(alpha, ..., alpha) over `dim` categories.
  std::vector<double> dirichlet(std::size_t dim, double alpha);

  /// k distinct indices drawn uniformly from [0, n) (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator. Deterministic given the
  /// parent's state; advancing the parent afterwards does not affect the
  /// child.
  Rng fork();

  /// Raw 64-bit draw. No longer the secure-aggregation mask PRG: masks
  /// are a counter-mode split_mix keystream (fl/secure_agg.hpp).
  std::uint64_t next_u64() { return engine_(); }

  /// SplitMix64's Weyl-sequence increment (2^64 / golden ratio).
  static constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

  /// SplitMix64 hash step; used for seed derivation, and in counter mode
  /// (split_mix(seed + k * kGoldenGamma) for word k) as the
  /// secure-aggregation mask keystream.
  static constexpr std::uint64_t split_mix(std::uint64_t x) {
    x += kGoldenGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace baffle
