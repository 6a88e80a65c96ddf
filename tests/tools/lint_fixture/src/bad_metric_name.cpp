// Seeded violation: a metric name as a string literal (rule
// metric-name), split across a line break like a long call.
#include <string>

namespace fixture {
struct Registry {
  void add_counter(const std::string&, unsigned long = 1) {}
};
void count_evals(Registry& registry, unsigned long evals) {
  registry.add_counter(
      "validator.model_materializaitons", evals);
}
}  // namespace fixture
