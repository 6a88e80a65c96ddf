#pragma once
// Deterministic random-number utilities.
//
// Every stochastic component of the library takes an explicit `Rng&` so
// that experiments are reproducible from a single seed. `Rng::fork()`
// derives statistically independent child generators (SplitMix64 over the
// parent stream), which lets client-local work run on a thread pool
// without making results depend on scheduling order.
//
// The engine is an in-house MT19937-64 with std::mt19937_64's seeding,
// twist, tempering and range, so every std:: distribution draws the
// same values from it as from std's engine (DESIGN.md §7). Its twist
// and the batched Gaussian draws of normals() run through the kernel
// table (tensor/kernels.hpp); the parity tests pin both to std's engine
// and std::normal_distribution.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/kernels.hpp"

namespace baffle {

/// Seeded pseudo-random generator (MT19937-64) with the sampling helpers
/// used across the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(split_mix(seed)) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (optionally scaled/shifted): one draw of a fresh
  /// std::normal_distribution(mean, stddev).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fills `out` with the values, and consumes the engine words, of
  /// out.size() calls of normal(mean, stddev), drawing eight polar
  /// pairs per vector step. Slower than normal() for a single draw.
  void normals(std::span<double> out, double mean = 0.0,
               double stddev = 1.0);

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

  /// MT19937-64's output tempering of one state word.
  static constexpr std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & kernels::kMtTemperD;
    z ^= (z << 17) & kernels::kMtTemperB;
    z ^= (z << 37) & kernels::kMtTemperC;
    return z ^ (z >> 43);
  }

 private:
  /// std::mt19937_64's state, seeding and output, as a uniform random
  /// bit generator the std:: distributions draw from.
  struct Engine {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Engine(result_type seed);
    result_type operator()() {
      if (next == kernels::kMtWords) regenerate();
      return temper(words[next++]);
    }
    /// Twists the state and restarts at its first word.
    void regenerate();

    std::array<std::uint64_t, kernels::kMtWords> words;
    std::size_t next = kernels::kMtWords;  // kMtWords: twist before use
  };

  Engine engine_;
};

}  // namespace baffle
