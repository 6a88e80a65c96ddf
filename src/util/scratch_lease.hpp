#pragma once
// Leased scratch, one slot per (thread, nesting depth).

#include <cstddef>
#include <deque>

#include "util/sync.hpp"

namespace baffle {

/// Scratch for pool-parallel kernels (GEMM packing, the batched
/// evaluation engine's panels and per-call views) and for train_sgd's
/// training workspace.
///
/// A plain thread_local buffer is not safe there: parallel_for waiters
/// help-drain the pool queue, so a thread blocked in one call can steal
/// and run another call of the same kernel (or one of its own row
/// blocks or tiles) in the middle of its own — with remote workers
/// still reading the outer call's buffer. Each nesting level therefore
/// leases its own slot. Slots live in a deque (stable addresses across
/// growth) and are reused once their level returns.
template <typename T>
class ScratchLease {
 public:
  // Sanctioned lock-free escape: the slot stack is thread_local, so no
  // two threads ever touch the same deque; per-thread exclusivity is
  // the whole invariant and there is no capability to annotate.
  ScratchLease() BAFFLE_NO_THREAD_SAFETY_ANALYSIS {
    if (slots().size() <= depth()) slots().emplace_back();
    buffer_ = &slots()[depth()];
    ++depth();
  }
  ~ScratchLease() BAFFLE_NO_THREAD_SAFETY_ANALYSIS { --depth(); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() const { return *buffer_; }

 private:
  static std::deque<T>& slots() {
    thread_local std::deque<T> s;
    return s;
  }
  static std::size_t& depth() {
    thread_local std::size_t d = 0;
    return d;
  }
  T* buffer_;
};

}  // namespace baffle
