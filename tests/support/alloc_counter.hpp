#pragma once
// Heap-allocation counter for the zero-allocation tests. A test binary
// that compiles tests/support/alloc_counter.cpp has its global scalar
// operator new replaced by one that counts each call; the default
// array and nothrow forms route through it, so every
// (non-over-aligned) heap allocation in the binary is counted.

#include <cstddef>

namespace baffle {

/// Heap allocations made so far by any thread of this process.
std::size_t heap_allocations();

}  // namespace baffle
