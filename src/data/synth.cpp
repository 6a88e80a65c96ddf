#include "data/synth.hpp"

#include <cmath>
#include <stdexcept>

namespace baffle {

namespace {

/// Random direction with the given L2 norm.
std::vector<float> random_direction(std::size_t dim, double norm, Rng& rng) {
  std::vector<float> v(dim);
  double total = 0.0;
  for (auto& x : v) {
    const double g = rng.normal();
    x = static_cast<float>(g);
    total += g * g;
  }
  const double current = std::sqrt(total);
  if (current > 0.0) {
    const auto scale = static_cast<float>(norm / current);
    for (auto& x : v) x *= scale;
  }
  return v;
}

std::vector<float> add_vecs(const std::vector<float>& a,
                            const std::vector<float>& b) {
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

struct MixtureModel {
  // mode_means[c][m] is the mean of class c's m-th sub-population.
  std::vector<std::vector<std::vector<float>>> mode_means;
  std::vector<float> backdoor_mean;  // semantic backdoor sub-population
};

MixtureModel build_mixture(const SynthTaskConfig& cfg, Rng& rng) {
  MixtureModel model;
  model.mode_means.resize(cfg.num_classes);
  for (std::size_t c = 0; c < cfg.num_classes; ++c) {
    const auto base = random_direction(cfg.dim, cfg.class_sep, rng);
    model.mode_means[c].reserve(cfg.modes_per_class);
    for (std::size_t m = 0; m < cfg.modes_per_class; ++m) {
      model.mode_means[c].push_back(
          add_vecs(base, random_direction(cfg.dim, cfg.mode_spread, rng)));
    }
  }
  if (cfg.backdoor_kind == BackdoorKind::kSemantic) {
    // The backdoor sub-population sits inside the source class but is
    // shifted along a distinctive trigger direction — a coherent,
    // naturally-occurring feature subset (the "striped background").
    const auto& source_base =
        model.mode_means[static_cast<std::size_t>(cfg.backdoor_source)][0];
    model.backdoor_mean = add_vecs(
        source_base, random_direction(cfg.dim, cfg.trigger_strength, rng));
  }
  return model;
}

/// Draws one sample around `mean` into `x`; `draws` holds one
/// Gaussian per dimension.
void sample_from_mean(const std::vector<float>& mean, double noise, Rng& rng,
                      std::span<double> draws, std::span<float> x) {
  rng.normals(draws, 0.0, noise);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    x[i] = mean[i] + static_cast<float>(draws[i]);
  }
}

/// Clean sample of class c: uniform over its sub-populations.
void sample_clean(const MixtureModel& model, const SynthTaskConfig& cfg,
                  std::size_t c, Rng& rng, std::span<double> draws,
                  std::span<float> x) {
  const auto& modes = model.mode_means[c];
  const auto m = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(modes.size()) - 1));
  sample_from_mean(modes[m], cfg.noise, rng, draws, x);
}

Dataset make_clean_set(const MixtureModel& model, const SynthTaskConfig& cfg,
                       std::size_t per_class, double label_noise, Rng& rng) {
  Dataset out(cfg.dim, cfg.num_classes);
  out.reserve(cfg.num_classes * per_class);
  std::vector<float> x(cfg.dim);
  std::vector<double> draws(cfg.dim);
  for (std::size_t c = 0; c < cfg.num_classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      sample_clean(model, cfg, c, rng, draws, x);
      auto y = static_cast<int>(c);
      if (label_noise > 0.0 && rng.bernoulli(label_noise)) {
        // Mislabel to a uniformly random *other* class.
        const auto shift = rng.uniform_int(
            1, static_cast<std::int64_t>(cfg.num_classes) - 1);
        y = static_cast<int>(
            (c + static_cast<std::size_t>(shift)) % cfg.num_classes);
      }
      out.add(x, y);
    }
  }
  out.shuffle(rng);
  return out;
}

Dataset make_backdoor_set(const MixtureModel& model,
                          const SynthTaskConfig& cfg, std::size_t count,
                          Rng& rng) {
  Dataset out(cfg.dim, cfg.num_classes);
  out.reserve(count);
  const std::vector<float> pattern =
      cfg.backdoor_kind == BackdoorKind::kTrigger ? trigger_pattern(cfg)
                                                  : std::vector<float>{};
  std::vector<float> x(cfg.dim);
  std::vector<double> draws(cfg.dim);
  for (std::size_t i = 0; i < count; ++i) {
    switch (cfg.backdoor_kind) {
      case BackdoorKind::kSemantic:
        sample_from_mean(model.backdoor_mean, cfg.noise, rng, draws, x);
        out.add(x, cfg.backdoor_source);
        break;
      case BackdoorKind::kLabelFlip:
        // The backdoor instances are ordinary samples of the source
        // class.
        sample_clean(model, cfg,
                     static_cast<std::size_t>(cfg.backdoor_source), rng, draws,
                     x);
        out.add(x, cfg.backdoor_source);
        break;
      case BackdoorKind::kTrigger: {
        // Any input stamped with the patch; true class preserved.
        const auto c = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cfg.num_classes) - 1));
        sample_clean(model, cfg, c, rng, draws, x);
        apply_trigger(x, pattern);
        out.add(x, static_cast<int>(c));
        break;
      }
    }
  }
  return out;
}

}  // namespace

const char* backdoor_kind_name(BackdoorKind kind) {
  switch (kind) {
    case BackdoorKind::kSemantic: return "semantic";
    case BackdoorKind::kLabelFlip: return "label-flip";
    case BackdoorKind::kTrigger: return "trigger-patch";
  }
  return "?";
}

std::vector<float> trigger_pattern(const SynthTaskConfig& config) {
  std::vector<float> pattern(config.dim, 0.0f);
  const std::size_t dims = std::min(kTriggerPatchDims, config.dim);
  for (std::size_t i = 0; i < dims; ++i) {
    pattern[i] = static_cast<float>(config.trigger_strength);
  }
  return pattern;
}

void apply_trigger(std::span<float> x, std::span<const float> pattern) {
  if (x.size() != pattern.size()) {
    throw std::invalid_argument("apply_trigger: pattern size mismatch");
  }
  for (std::size_t i = 0; i < pattern.size(); ++i) x[i] += pattern[i];
}

SynthTaskConfig synth_vision10_config() {
  SynthTaskConfig cfg;
  cfg.num_classes = 10;
  cfg.dim = 32;
  cfg.modes_per_class = 6;
  cfg.class_sep = 3.2;
  cfg.mode_spread = 1.5;
  cfg.noise = 0.95;
  cfg.label_noise = 0.03;
  // 10k training samples across the preset's 50 clients puts ~180
  // samples on each client (90-10 split) — the same order as the
  // paper's CIFAR-10 deployment (500/client), and enough resolution for
  // a client's VALIDATE to see the side effects of a behavior-cloned
  // adaptive injection.
  cfg.train_per_class = 1000;
  cfg.test_per_class = 100;
  cfg.backdoor_kind = BackdoorKind::kSemantic;
  cfg.backdoor_source = 1;  // 'cars'
  cfg.backdoor_target = 2;  // 'birds'
  cfg.trigger_strength = 2.5;
  cfg.backdoor_train_size = 200;
  cfg.backdoor_test_size = 100;
  return cfg;
}

SynthTaskConfig synth_femnist62_config() {
  SynthTaskConfig cfg;
  cfg.num_classes = 62;
  cfg.dim = 48;
  cfg.modes_per_class = 2;
  cfg.class_sep = 3.9;
  cfg.mode_spread = 1.0;
  cfg.noise = 0.95;
  cfg.label_noise = 0.02;
  cfg.train_per_class = 120;
  cfg.test_per_class = 30;
  cfg.backdoor_kind = BackdoorKind::kLabelFlip;
  cfg.backdoor_source = 0;  // overridden per-run by the harness
  cfg.backdoor_target = 1;
  cfg.backdoor_train_size = 150;
  cfg.backdoor_test_size = 60;
  return cfg;
}

SynthTask make_synth_task(const SynthTaskConfig& config, Rng& rng) {
  if (config.num_classes < 2) {
    throw std::invalid_argument("make_synth_task: need >= 2 classes");
  }
  if (config.backdoor_source < 0 ||
      static_cast<std::size_t>(config.backdoor_source) >= config.num_classes ||
      config.backdoor_target < 0 ||
      static_cast<std::size_t>(config.backdoor_target) >= config.num_classes ||
      config.backdoor_source == config.backdoor_target) {
    throw std::invalid_argument("make_synth_task: bad backdoor classes");
  }
  const MixtureModel model = build_mixture(config, rng);
  SynthTask task;
  task.config = config;
  task.train = make_clean_set(model, config, config.train_per_class,
                              config.label_noise, rng);
  task.test = make_clean_set(model, config, config.test_per_class, 0.0, rng);
  task.backdoor_train =
      make_backdoor_set(model, config, config.backdoor_train_size, rng);
  task.backdoor_test =
      make_backdoor_set(model, config, config.backdoor_test_size, rng);
  return task;
}

}  // namespace baffle
