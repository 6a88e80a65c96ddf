#include "core/prediction_cache.hpp"

#include "util/contracts.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"

namespace baffle {

const ErrorProfile* PredictionCache::find(std::uint64_t version) const {
  const auto it = entries_.find(version);
  return it == entries_.end() ? nullptr : &it->second;
}

const ErrorProfile& PredictionCache::hit(std::uint64_t version) {
  const ErrorProfile* found = find(version);
  BAFFLE_CHECK(found != nullptr,
               "prediction cache: window model was never deposited");
  ++hits_;
  MetricsRegistry::global().add_counter(metric::kCacheHits);
  return *found;
}

void PredictionCache::insert_missed(std::uint64_t version,
                                    ErrorProfile profile) {
  ++misses_;
  MetricsRegistry::global().add_counter(metric::kCacheMisses);
  entries_.insert_or_assign(version, std::move(profile));
}

void PredictionCache::promote(std::uint64_t version, ErrorProfile profile) {
  ++promotions_;
  MetricsRegistry::global().add_counter(metric::kCachePromotions);
  entries_.insert_or_assign(version, std::move(profile));
}

void PredictionCache::evict_before(std::uint64_t version) {
  entries_.erase(entries_.begin(), entries_.lower_bound(version));
}

}  // namespace baffle
