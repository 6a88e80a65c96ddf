#include "data/backdoor_data.hpp"

#include <algorithm>
#include <stdexcept>

namespace baffle {

Dataset relabel_to_target(const Dataset& backdoor_pool,
                          const BackdoorTask& task) {
  Dataset out(backdoor_pool.dim(), backdoor_pool.num_classes());
  out.reserve(backdoor_pool.size());
  for (std::size_t i = 0; i < backdoor_pool.size(); ++i) {
    out.add(backdoor_pool.x(i), task.target_class);
  }
  return out;
}

Dataset make_poisoned_training_set(const Dataset& attacker_clean,
                                   const Dataset& backdoor_pool,
                                   const BackdoorTask& task,
                                   double poison_fraction, Rng& rng) {
  if (!(poison_fraction > 0.0 && poison_fraction < 1.0)) {
    throw std::invalid_argument(
        "make_poisoned_training_set: poison_fraction out of (0,1)");
  }
  if (backdoor_pool.empty()) {
    throw std::invalid_argument(
        "make_poisoned_training_set: empty backdoor pool");
  }
  Dataset out = attacker_clean;
  const auto clean_n = static_cast<double>(attacker_clean.size());
  const auto poison_n = static_cast<std::size_t>(
      poison_fraction / (1.0 - poison_fraction) * clean_n + 0.5);
  const Dataset relabelled = relabel_to_target(backdoor_pool, task);
  for (std::size_t i = 0; i < std::max<std::size_t>(poison_n, 1); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(relabelled.size()) - 1));
    out.add(relabelled.x(j), relabelled.y(j));
  }
  out.shuffle(rng);
  return out;
}

BackdoorTask pick_label_flip_task(const Dataset& attacker_data, Rng& rng) {
  if (attacker_data.empty()) {
    throw std::invalid_argument("pick_label_flip_task: empty attacker data");
  }
  const auto counts = attacker_data.class_counts();
  const auto source = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  // Target uniform among the remaining classes.
  const auto k = static_cast<std::int64_t>(counts.size());
  auto target = static_cast<int>(rng.uniform_int(0, k - 2));
  if (target >= source) ++target;
  return BackdoorTask{BackdoorKind::kLabelFlip, source, target};
}

}  // namespace baffle
