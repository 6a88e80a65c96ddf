#include "attack/dba.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

std::vector<std::vector<float>> split_trigger(
    const std::vector<float>& pattern, std::size_t parts) {
  if (parts == 0) throw std::invalid_argument("split_trigger: zero parts");
  std::vector<std::vector<float>> out(
      parts, std::vector<float>(pattern.size(), 0.0f));
  std::size_t slot = 0;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == 0.0f) continue;
    out[slot % parts][i] = pattern[i];
    ++slot;
  }
  return out;
}

ParamVec craft_dba_update(const Mlp& global, const Dataset& attacker_clean,
                          const std::vector<float>& trigger_part,
                          const DbaConfig& config, Rng& rng) {
  if (attacker_clean.empty()) {
    throw std::invalid_argument("craft_dba_update: empty attacker shard");
  }
  if (trigger_part.size() != attacker_clean.dim()) {
    throw std::invalid_argument("craft_dba_update: pattern dim mismatch");
  }
  if (!(config.poison_fraction > 0.0 && config.poison_fraction < 1.0)) {
    throw std::invalid_argument("craft_dba_update: bad poison fraction");
  }
  // Blend: clean shard + stamped-and-relabelled copies of its own
  // samples carrying only this colluder's trigger slice.
  Dataset blend = attacker_clean;
  const auto poison_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.poison_fraction /
                                  (1.0 - config.poison_fraction) *
                                  static_cast<double>(attacker_clean.size())));
  std::vector<float> stamped(attacker_clean.dim());
  for (std::size_t i = 0; i < poison_count; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(attacker_clean.size()) - 1));
    const auto row = attacker_clean.x(j);
    std::copy(row.begin(), row.end(), stamped.begin());
    apply_trigger(stamped, trigger_part);
    blend.add(stamped, config.target_class);
  }
  blend.shuffle(rng);

  ParamVec update = train_update(global, blend.features(), blend.labels(),
                                 config.train, rng);
  scale(update, static_cast<float>(config.per_client_boost));
  return update;
}

DbaUpdateProvider::DbaUpdateProvider(HonestUpdateProvider honest,
                                     std::vector<std::size_t> colluder_ids,
                                     std::vector<Dataset> colluder_data,
                                     std::vector<float> full_pattern,
                                     DbaConfig config)
    : honest_(std::move(honest)),
      colluder_ids_(std::move(colluder_ids)),
      colluder_data_(std::move(colluder_data)),
      parts_(split_trigger(full_pattern, config.num_parts)),
      config_(std::move(config)) {
  if (colluder_ids_.size() != config_.num_parts ||
      colluder_data_.size() != config_.num_parts) {
    throw std::invalid_argument(
        "DbaUpdateProvider: colluders must match num_parts");
  }
}

ParamVec DbaUpdateProvider::update_for(std::size_t client_id,
                                       const Mlp& global, Rng& rng) {
  if (armed_) {
    const auto it =
        std::find(colluder_ids_.begin(), colluder_ids_.end(), client_id);
    if (it != colluder_ids_.end()) {
      const auto part =
          static_cast<std::size_t>(it - colluder_ids_.begin());
      return craft_dba_update(global, colluder_data_[part], parts_[part],
                              config_, rng);
    }
  }
  return honest_.update_for(client_id, global, rng);
}

}  // namespace baffle
