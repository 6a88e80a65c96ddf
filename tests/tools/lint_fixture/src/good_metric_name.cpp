// Clean: the metric name is the declared constant (rule metric-name
// must not fire here, nor on names mentioned in comments such as
// add_timer("experiment.round_eval", ...)).
#include <string>

#include "util/metric_names.hpp"

namespace fixture {
struct Registry {
  void add_timer(const std::string&, double) {}
};
void time_eval(Registry& registry, double seconds) {
  registry.add_timer(metric::kRoundEval, seconds);
}
}  // namespace fixture
