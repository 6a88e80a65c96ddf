// Positive control for the thread-safety gate: exercises every wrapper
// in util/sync.hpp the way the codebase does — guarded fields accessed
// under scoped locks, a REQUIRES helper called with the lock held and
// a condition-variable wait in the analysis-friendly shape. Must
// compile clean under
//   -Wthread-safety -Wthread-safety-beta -Werror=thread-safety-analysis
// or the gate itself is broken (the bad_*.cpp rejections would be
// meaningless).
#include <vector>

#include "util/sync.hpp"

namespace fixture {

class BoundedQueue {
 public:
  void push(int v) {
    baffle::MutexLock lock(mu_);
    items_.push_back(v);
    cv_.notify_one();
  }

  int pop_blocking() {
    baffle::MutexLock lock(mu_);
    while (items_.empty()) cv_.wait(mu_);
    return take_front();
  }

  bool empty() const {
    baffle::MutexLock lock(mu_);
    return items_.empty();
  }

 private:
  int take_front() BAFFLE_REQUIRES(mu_) {
    const int v = items_.front();
    items_.erase(items_.begin());
    return v;
  }

  mutable baffle::Mutex mu_;
  baffle::CondVar cv_;
  std::vector<int> items_ BAFFLE_GUARDED_BY(mu_);
};

int drive() {
  BoundedQueue q;
  q.push(1);
  return q.pop_blocking() + static_cast<int>(q.empty());
}

}  // namespace fixture
