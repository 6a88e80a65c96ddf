#pragma once
// History of accepted global models (the (𝒢^0, …, 𝒢^ℓ) of Algorithm 1).
//
// The server appends a snapshot on every *committed* round — rejected
// proposals never enter the history, which is what bootstraps trust
// across rounds (§IV-B). Only the most recent `capacity` snapshots are
// retained; the feedback loop ships the last ℓ+1 to validators.
//
// Snapshots are held behind shared_ptr so the per-round window handed
// to every validator aliases the stored models instead of copying ℓ+1
// parameter vectors per validator per round.

#include <deque>
#include <memory>

#include "fl/server.hpp"

namespace baffle {

/// Zero-copy view of the last ℓ+1 accepted models, oldest first. The
/// pointees are immutable and stay alive for as long as any window
/// references them, even after the history rotates them out.
using ModelWindow = std::vector<std::shared_ptr<const GlobalModel>>;

class ModelHistory {
 public:
  /// `capacity` bounds retention; it must be at least the largest ℓ+1
  /// any validator will request.
  explicit ModelHistory(std::size_t capacity);

  void push(std::uint64_t version, ParamVec params);
  /// Appends an existing snapshot without copying it, so several
  /// histories can alias one immutable model (the client actors of a
  /// transport run share their decoded snapshots this way).
  void push(std::shared_ptr<const GlobalModel> snapshot);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// The most recent `count` accepted models, oldest first, aliasing
  /// the stored snapshots (no param copies). Returns fewer when the
  /// history is still short.
  ModelWindow window_shared(std::size_t count) const;

  const GlobalModel& latest() const;

 private:
  std::size_t capacity_;
  std::deque<std::shared_ptr<const GlobalModel>> entries_;
};

}  // namespace baffle
