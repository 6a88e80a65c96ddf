#pragma once
// Per-validator memoization of model evaluations.
//
// Validating a round reads the error profiles (core/error_variation.hpp)
// of the ℓ+1 history models on the validator's fixed dataset. History
// models are immutable and identified by version, so each (version →
// profile) pair is computed once per validator and reused across rounds;
// the fresh candidate's profile is *promoted* into the cache when the
// round commits (Validator::notify_commit), so in steady state no model
// is ever evaluated twice. Versions only grow, so an entry older than
// the window's front can never be read again: the validator evicts those
// when it plans a round (evict_before), and the cache holds at most the
// window plus the promoted candidate.

#include <cstdint>
#include <map>

#include "core/error_variation.hpp"

namespace baffle {

class PredictionCache {
 public:
  const ErrorProfile* find(std::uint64_t version) const;

  /// Checked lookup of an entry the round has already deposited; counts
  /// a hit (per cache and in the global `prediction_cache.hits`). A
  /// missing entry is a caller bug and throws ContractViolation.
  const ErrorProfile& hit(std::uint64_t version);

  /// Deposits an evaluation the cache could not serve: counts a miss
  /// (`prediction_cache.misses`). The validator's engine pass computes
  /// every uncached window model in one batch and deposits them here.
  void insert_missed(std::uint64_t version, ErrorProfile profile);

  /// Binds a candidate's already-computed profile to the version it was
  /// committed under, so next round's history pass hits instead of
  /// redoing the forward pass (`prediction_cache.promotions`).
  void promote(std::uint64_t version, ErrorProfile profile);

  /// Drops every entry whose version is below `version`.
  void evict_before(std::uint64_t version);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t promotions() const { return promotions_; }

 private:
  std::map<std::uint64_t, ErrorProfile> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t promotions_ = 0;
};

}  // namespace baffle
