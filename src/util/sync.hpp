#pragma once
// Annotated synchronization layer: the only sanctioned entry point for
// locking in src/ (enforced by the `raw-sync` repo lint rule).
//
// Mutex / CondVar wrap their std counterparts and carry
// Clang Thread Safety Analysis capability attributes, so every
// guarded-data invariant in the codebase is a *compile-time* property
// under clang (`cmake -DBAFFLE_THREAD_SAFETY=ON`, which adds
// -Wthread-safety -Werror=thread-safety-analysis; see DESIGN.md §16).
// On GCC — and on clang builds without the option — the annotations
// expand to nothing and the wrappers compile down to the std types.
//
// Usage pattern (see any adopted subsystem, e.g. util/thread_pool.hpp):
//
//   class Queue {
//     void drain() BAFFLE_REQUIRES(mu_);       // caller must hold mu_
//     Mutex mu_;
//     std::deque<int> items_ BAFFLE_GUARDED_BY(mu_);
//     CondVar cv_;
//   };
//
//   MutexLock lock(mu_);                        // scoped acquire
//   while (items_.empty() && !stop_) cv_.wait(mu_);
//
// Condition-variable waits deliberately take the *mutex*, not a
// predicate: the analysis can only check guarded reads it sees in a
// scope that holds the capability, so the predicate loop lives at the
// call site (the "analysis-friendly shape") instead of inside a lambda
// the analysis would treat as an unrelated function.

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------
// Attribute plumbing. Clang implements the analysis; GCC merely warns
// about the unknown attributes, so they vanish entirely there.
#if defined(__clang__)
#define BAFFLE_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define BAFFLE_TS_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Declares a type as a lockable capability ("mutex").
#define BAFFLE_CAPABILITY(x) BAFFLE_TS_ATTRIBUTE(capability(x))
/// Declares an RAII type whose lifetime equals a critical section.
#define BAFFLE_SCOPED_CAPABILITY BAFFLE_TS_ATTRIBUTE(scoped_lockable)
/// Data member readable/writable only while holding the named mutex.
#define BAFFLE_GUARDED_BY(x) BAFFLE_TS_ATTRIBUTE(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named mutex.
#define BAFFLE_PT_GUARDED_BY(x) BAFFLE_TS_ATTRIBUTE(pt_guarded_by(x))
/// Function callable only while holding the named mutexes exclusively.
#define BAFFLE_REQUIRES(...) \
  BAFFLE_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
/// Function that acquires the named capability and holds it on return.
#define BAFFLE_ACQUIRE(...) \
  BAFFLE_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
/// Function that releases the named capability.
#define BAFFLE_RELEASE(...) \
  BAFFLE_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
/// Function that acquires the capability iff it returns `val`.
#define BAFFLE_TRY_ACQUIRE(...) \
  BAFFLE_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
/// Function that must be called while NOT holding the named mutexes
/// (documents "will acquire internally"; checked under
/// -Wthread-safety-negative only).
#define BAFFLE_EXCLUDES(...) BAFFLE_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
/// Asserts (at analysis level) that the capability is held — for code
/// reached only from holders the analysis cannot see.
#define BAFFLE_ASSERT_CAPABILITY(x) \
  BAFFLE_TS_ATTRIBUTE(assert_capability(x))
/// Function returning a reference to the named mutex.
#define BAFFLE_RETURN_CAPABILITY(x) BAFFLE_TS_ATTRIBUTE(lock_returned(x))
/// Deliberate escape hatch. Every use carries a one-line comment naming
/// the invariant that makes the unchecked access safe (DESIGN.md §16
/// lists all of them).
#define BAFFLE_NO_THREAD_SAFETY_ANALYSIS \
  BAFFLE_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace baffle {

/// Exclusive mutex (std::mutex) declared as a capability.
class BAFFLE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BAFFLE_ACQUIRE() { m_.lock(); }
  void unlock() BAFFLE_RELEASE() { m_.unlock(); }
  bool try_lock() BAFFLE_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Underlying handle, for CondVar only — bypassing the annotations
  /// with it defeats the layer's purpose.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Scoped exclusive lock on a Mutex (the std::lock_guard replacement).
class BAFFLE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BAFFLE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() BAFFLE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Waits take the mutex the
/// caller already holds; the predicate loop stays at the call site so
/// guarded reads in the condition are checked under the capability:
///
///   MutexLock lock(mu_);
///   while (queue_.empty() && !stop_) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu` and blocks; `mu` is reacquired before
  /// returning (including on spurious wakeup — same contract as
  /// std::condition_variable::wait).
  void wait(Mutex& mu) BAFFLE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();  // the caller's scope still owns the lock
  }

  /// As wait(), but returns std::cv_status::timeout once `deadline`
  /// passes. `mu` is held again whenever this returns.
  template <class Clock, class Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      BAFFLE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  /// As wait(), but gives up after `timeout`.
  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& timeout)
      BAFFLE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace baffle
