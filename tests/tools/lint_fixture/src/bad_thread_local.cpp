// Seeded thread-local violation: per-thread scratch kept in a plain
// thread_local instead of a ScratchLease slot.
#include <vector>

namespace fixture {

std::vector<float>& scratch() {
  thread_local std::vector<float> buffer;
  return buffer;
}

}  // namespace fixture
