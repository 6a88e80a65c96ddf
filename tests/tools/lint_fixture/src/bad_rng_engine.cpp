// Seeded rng-engine violation: a private std engine and normal
// distribution instead of a draw through Rng.
#include <cstdint>
#include <random>

namespace fixture {

double private_gaussian(std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine);
}

}  // namespace fixture
