#include "core/history.hpp"

#include <stdexcept>

#include "util/contracts.hpp"

namespace baffle {

ModelHistory::ModelHistory(std::size_t capacity) : capacity_(capacity) {
  // Algorithm 1 ships the last ℓ+1 accepted models to validators, so a
  // history that cannot retain even one snapshot is a config bug.
  BAFFLE_CHECK(capacity > 0, "ModelHistory capacity must be positive");
}

void ModelHistory::push(std::uint64_t version, ParamVec params) {
  push(std::make_shared<const GlobalModel>(
      GlobalModel{version, std::move(params)}));
}

void ModelHistory::push(std::shared_ptr<const GlobalModel> snapshot) {
  BAFFLE_DCHECK(
      entries_.empty() || snapshot->version > entries_.back()->version,
      "committed model versions must be strictly increasing");
  entries_.push_back(std::move(snapshot));
  while (entries_.size() > capacity_) entries_.pop_front();
  BAFFLE_DCHECK(entries_.size() <= capacity_,
                "history retention must stay within capacity");
}

ModelWindow ModelHistory::window_shared(std::size_t count) const {
  const std::size_t n = std::min(count, entries_.size());
  ModelWindow out;
  out.reserve(n);
  for (std::size_t i = entries_.size() - n; i < entries_.size(); ++i) {
    out.push_back(entries_[i]);
  }
  return out;
}

const GlobalModel& ModelHistory::latest() const {
  if (entries_.empty()) throw std::out_of_range("ModelHistory: empty");
  return *entries_.back();
}

}  // namespace baffle
