// Seeded violation: a CLI reading a metric by a literal name (rule
// metric-name) instead of the util/metric_names.hpp constant.
#include <string>

namespace fixture {
struct Registry {
  double timer_mean_ms(const std::string&) const { return 0.0; }
};
double eval_ms(const Registry& registry) {
  return registry.timer_mean_ms("experiment.round_eval");
}
}  // namespace fixture
