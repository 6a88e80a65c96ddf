// Stand-in for util/rng.cpp: Rng's engine is the sanctioned user of
// std's engine and normal distribution (not flagged).
#include <cstdint>
#include <random>

namespace fixture {

double engine_gaussian(std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine);
}

}  // namespace fixture
