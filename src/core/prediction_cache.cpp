#include "core/prediction_cache.hpp"

#include <algorithm>
#include <cstddef>

#include "util/contracts.hpp"

namespace baffle {

std::size_t PredictionCache::position(std::uint64_t version) const {
  const auto live_end = entries_.begin() + static_cast<std::ptrdiff_t>(live_);
  return static_cast<std::size_t>(
      std::lower_bound(entries_.begin(), live_end, version,
                       [](const Entry& entry, std::uint64_t v) {
                         return entry.version < v;
                       }) -
      entries_.begin());
}

const ErrorProfile* PredictionCache::find(std::uint64_t version) const {
  const std::size_t i = position(version);
  return i < live_ && entries_[i].version == version ? &entries_[i].profile
                                                      : nullptr;
}

const ErrorProfile& PredictionCache::hit(std::uint64_t version) {
  const ErrorProfile* found = find(version);
  BAFFLE_CHECK(found != nullptr,
               "prediction cache: window model was never deposited");
  ++hits_;
  return *found;
}

void PredictionCache::insert_missed(std::uint64_t version,
                                    const ErrorProfile& profile) {
  ++misses_;
  store(version, profile);
}

void PredictionCache::promote(std::uint64_t version,
                              const ErrorProfile& profile) {
  ++promotions_;
  store(version, profile);
}

void PredictionCache::store(std::uint64_t version,
                            const ErrorProfile& profile) {
  const std::size_t i = position(version);
  if (i == live_ || entries_[i].version != version) {
    // Rotate the first spare entry (or a new one) into place.
    if (live_ == entries_.size()) entries_.emplace_back();
    const auto at = entries_.begin() + static_cast<std::ptrdiff_t>(i);
    const auto spare = entries_.begin() + static_cast<std::ptrdiff_t>(live_);
    std::rotate(at, spare, spare + 1);
    ++live_;
    entries_[i].version = version;
  }
  entries_[i].profile.errors.assign(profile.errors.begin(),
                                    profile.errors.end());
  entries_[i].profile.accuracy = profile.accuracy;
}

void PredictionCache::evict_before(std::uint64_t version) {
  // Evicted entries move behind the live ones, keeping their storage.
  const std::size_t evicted = position(version);
  std::rotate(entries_.begin(),
              entries_.begin() + static_cast<std::ptrdiff_t>(evicted),
              entries_.begin() + static_cast<std::ptrdiff_t>(live_));
  live_ -= evicted;
}

}  // namespace baffle
