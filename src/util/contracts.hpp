#pragma once
// Contract checking for the protocol invariants BaFFLe's security
// argument depends on (history window ℓ+1, k = ⌈ℓ/2⌉, τ over ⌊ℓ/4⌋
// trusted points, quorum q ≤ n) and for the shape/alignment/aliasing
// preconditions of the numeric kernels.
//
// Two tiers (see DESIGN.md §11):
//
//   BAFFLE_CHECK(cond, msg)   — always on, in every build. For cheap
//     boundary validation: configuration, shapes at kernel entry
//     points, label ranges. Failure throws ContractViolation, which
//     derives from std::invalid_argument so pre-contract callers (and
//     tests) that caught std::invalid_argument keep working.
//
//   BAFFLE_DCHECK(cond, msg) / BAFFLE_DCHECK_BOUNDS(i, n) — compiled
//     in only when the BAFFLE_CHECKS CMake option is ON (defines
//     BAFFLE_CHECKS=1). For per-element and inner-loop invariants that
//     would cost real time in release builds: index bounds, aliasing,
//     alignment, neighborhood non-emptiness. Zero code is generated
//     when off.
//
// Header-only and dependency-free on purpose: the kernel arms
// (tensor/kernels_*.cpp) link no other baffle library and must still
// be able to state their preconditions.

#include <cstddef>
#include <stdexcept>
#include <string>

namespace baffle {

/// Thrown by BAFFLE_CHECK / BAFFLE_DCHECK on a violated precondition.
/// Derives from std::invalid_argument: a contract violation is a
/// caller bug, and the pre-contract code reported those the same way.
class ContractViolation : public std::invalid_argument {
 public:
  explicit ContractViolation(const std::string& what)
      : std::invalid_argument(what) {}
};

namespace detail {

[[noreturn]] inline void contract_failed(const char* kind, const char* expr,
                                         const char* file, int line,
                                         const char* msg) {
  std::string out(kind);
  out += " failed: ";
  out += msg;
  out += " [";
  out += expr;
  out += "] at ";
  out += file;
  out += ':';
  out += std::to_string(line);
  throw ContractViolation(out);
}

[[noreturn]] inline void bounds_failed(std::size_t index, std::size_t size,
                                       const char* file, int line) {
  std::string out("BAFFLE_DCHECK_BOUNDS failed: index ");
  out += std::to_string(index);
  out += " >= size ";
  out += std::to_string(size);
  out += " at ";
  out += file;
  out += ':';
  out += std::to_string(line);
  throw ContractViolation(out);
}

}  // namespace detail
}  // namespace baffle

#define BAFFLE_CHECK(cond, msg)                                       \
  (static_cast<bool>(cond)                                            \
       ? static_cast<void>(0)                                         \
       : ::baffle::detail::contract_failed("BAFFLE_CHECK", #cond,     \
                                           __FILE__, __LINE__, msg))

#if defined(BAFFLE_CHECKS) && BAFFLE_CHECKS
#define BAFFLE_DCHECK(cond, msg)                                      \
  (static_cast<bool>(cond)                                            \
       ? static_cast<void>(0)                                         \
       : ::baffle::detail::contract_failed("BAFFLE_DCHECK", #cond,    \
                                           __FILE__, __LINE__, msg))
#define BAFFLE_DCHECK_BOUNDS(index, size)                             \
  ((static_cast<std::size_t>(index) < static_cast<std::size_t>(size)) \
       ? static_cast<void>(0)                                         \
       : ::baffle::detail::bounds_failed(                             \
             static_cast<std::size_t>(index),                         \
             static_cast<std::size_t>(size), __FILE__, __LINE__))
#else
// Off: generate no code and no reads. The conditions must stay free of
// side effects; keeping them syntactically checked via sizeof would
// reject lambdas, so they are simply dropped.
#define BAFFLE_DCHECK(cond, msg) static_cast<void>(0)
#define BAFFLE_DCHECK_BOUNDS(index, size) static_cast<void>(0)
#endif
