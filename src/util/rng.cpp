#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

namespace baffle {

Rng::Engine::Engine(result_type seed) {
  // std::mt19937_64's seeding: x_i = f * (x_{i-1} ^ (x_{i-1} >> 62)) + i.
  words[0] = seed;
  for (std::size_t i = 1; i < kernels::kMtWords; ++i) {
    words[i] = 6364136223846793005ULL * (words[i - 1] ^ (words[i - 1] >> 62)) +
               i;
  }
}

void Rng::Engine::regenerate() {
  kernels::active_table().mt_regenerate(words.data());
  next = 0;
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

void Rng::normals(std::span<double> out, double mean, double stddev) {
  const kernels::KernelTable& table = kernels::active_table();
  std::array<double, 64> r2{};
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t left = kernels::kMtWords - engine_.next;
    if (left == 0) {
      engine_.regenerate();
      continue;
    }
    if (left == 1) {
      // The next pair straddles the twist.
      out[done++] = normal(mean, stddev);
      continue;
    }
    kernels::PolarPairsArgs step;
    step.words = engine_.words.data() + engine_.next;
    step.pairs = left / 2;
    step.want = std::min(out.size() - done, r2.size());
    step.y = out.data() + done;
    step.r2 = r2.data();
    std::size_t pairs_read = 0;
    const std::size_t accepted = table.polar_pairs(step, &pairs_read);
    engine_.next += 2 * pairs_read;
    // libstdc++'s return value for an accepted pair; a fresh
    // distribution per draw discards the pair's other value, x * mult.
    for (std::size_t i = 0; i < accepted; ++i) {
      const double mult = std::sqrt(-2.0 * std::log(r2[i]) / r2[i]);
      step.y[i] = step.y[i] * mult * stddev + mean;
    }
    done += accepted;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  // std::bernoulli_distribution requires p in [0, 1]; NaN fails too.
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("bernoulli: p = " + std::to_string(p) +
                                " is not in [0, 1]");
  }
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("categorical: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("categorical: non-positive total");
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;  // numerical slack
}

std::vector<double> Rng::dirichlet(std::size_t dim, double alpha) {
  if (dim == 0) throw std::invalid_argument("dirichlet: dim == 0");
  if (alpha <= 0.0) throw std::invalid_argument("dirichlet: alpha <= 0");
  std::gamma_distribution<double> gamma(alpha, 1.0);
  std::vector<double> out(dim);
  double total = 0.0;
  for (auto& x : out) {
    x = gamma(engine_);
    total += x;
  }
  if (total <= 0.0) {
    // Extremely small alpha can underflow every gamma draw; fall back to
    // a one-hot sample, which is the correct limiting distribution.
    std::fill(out.begin(), out.end(), 0.0);
    out[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(dim) - 1))] =
        1.0;
    return out;
  }
  for (auto& x : out) x /= total;
  return out;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::fork() { return Rng(engine_()); }

}  // namespace baffle
