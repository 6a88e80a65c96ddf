#pragma once
// Fixture copy of the sanctioned thread-local sink: util/scratch_lease.hpp
// keeps the per-thread slot stack. The linter must NOT flag this file.
#include <cstddef>

namespace fixture {

inline std::size_t& depth() {
  thread_local std::size_t d = 0;
  return d;
}

}  // namespace fixture
