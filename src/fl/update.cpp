#include "fl/update.hpp"

#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

bool same_bytes(const ParamVec& a, const ParamVec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void check_update_sizes(const std::vector<ParamVec>& updates,
                        std::size_t expected_size) {
  for (const auto& u : updates) {
    if (u.size() != expected_size) {
      throw std::invalid_argument("update size mismatch");
    }
  }
}

ParamVec sum_updates(const std::vector<ParamVec>& updates) {
  if (updates.empty()) throw std::invalid_argument("sum_updates: empty");
  ParamVec out(updates.front().size(), 0.0f);
  for (const auto& u : updates) {
    if (u.size() != out.size()) {
      throw std::invalid_argument("update size mismatch");
    }
    axpy(1.0f, u, out);
  }
  return out;
}

ParamVec mean_update(const std::vector<ParamVec>& updates) {
  ParamVec out = sum_updates(updates);
  scale(out, 1.0f / static_cast<float>(updates.size()));
  return out;
}

}  // namespace baffle
