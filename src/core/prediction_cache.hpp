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
// window plus the promoted candidate. An evicted entry's storage is kept
// and reused by the next deposit, so a steady-state round allocates
// nothing here.
//
// The cache tallies its own hits, misses and promotions; the validator
// reports them to MetricsRegistry once per validate(), not per lookup.

#include <cstdint>
#include <vector>

#include "core/error_variation.hpp"

namespace baffle {

/// A profile find() or hit() returns stays valid until the next deposit
/// or eviction.
class PredictionCache {
 public:
  const ErrorProfile* find(std::uint64_t version) const;

  /// Checked lookup of an entry the round has already deposited; counts
  /// a hit. A missing entry is a caller bug and throws
  /// ContractViolation.
  const ErrorProfile& hit(std::uint64_t version);

  /// Deposits (a copy of) an evaluation the cache could not serve:
  /// counts a miss. The validator's engine pass computes every uncached
  /// window model in one batch and deposits them here.
  void insert_missed(std::uint64_t version, const ErrorProfile& profile);

  /// Binds a candidate's already-computed profile to the version it was
  /// committed under, so next round's history pass hits instead of
  /// redoing the forward pass; counts a promotion.
  void promote(std::uint64_t version, const ErrorProfile& profile);

  /// Drops every entry whose version is below `version`, keeping its
  /// storage for the next deposit.
  void evict_before(std::uint64_t version);

  std::size_t size() const { return live_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t promotions() const { return promotions_; }

 private:
  struct Entry {
    std::uint64_t version = 0;
    ErrorProfile profile;
  };

  /// Index of the first live entry whose version is not below
  /// `version` (live_ when there is none).
  std::size_t position(std::uint64_t version) const;
  void store(std::uint64_t version, const ErrorProfile& profile);

  // entries_[0, live_) are the cached profiles, sorted by version; the
  // rest are evicted entries whose storage the next deposit reuses.
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t promotions_ = 0;
};

}  // namespace baffle
