// The replacement operators behind heap_allocations(). They live in a
// translation unit of their own: defined next to the code whose
// allocations they count, GCC can see a new and its matching delete as
// a mismatched pair (-Wmismatched-new-delete under -fsanitize=undefined).

#include "support/alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace baffle {

std::size_t heap_allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace baffle
