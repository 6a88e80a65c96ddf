#pragma once
// Synthetic image-classification surrogates for CIFAR-10 and FEMNIST.
//
// Substitution rationale (see DESIGN.md §2): BaFFLe consumes only the
// per-class error behaviour of the global model across FL rounds, so any
// classifier + data distribution with (a) incremental round-to-round
// improvement, (b) class-conditional error structure, and (c) a
// *sub-population* semantic-trigger for the backdoor exercises the exact
// defense code path. Each class is a Gaussian mixture over several
// "modes" (sub-populations). The designated backdoor mode of the source
// class is shifted along a private trigger direction — the analogue of
// "cars with a striped background": a naturally-occurring feature subset,
// not a pixel patch.
//
// The generator returns:
//   train          — clean training pool (backdoor-mode samples of the
//                    source class excluded, matching the paper's
//                    worst-case "no validating client holds backdoor
//                    data" setup for semantic backdoors)
//   test           — clean held-out test set (same exclusion)
//   backdoor_train — attacker's pool of backdoor instances (true class =
//                    source; the attacker relabels them to the target)
//   backdoor_test  — held-out backdoor instances for measuring backdoor
//                    accuracy (Eq. 1)

#include "data/dataset.hpp"

namespace baffle {

enum class BackdoorKind {
  kSemantic,   // sub-population trigger (CIFAR-10 experiment)
  kLabelFlip,  // entire source class -> target (FEMNIST experiment)
  kTrigger,    // pixel-patch analogue: a fixed additive pattern stamped
               // onto otherwise ordinary inputs (BadNets/DBA-style); the
               // paper conjectures (§V) that dedicated instantiations
               // detect other backdoor types — the ablation bench tests
               // the default instantiation against this one
};

const char* backdoor_kind_name(BackdoorKind kind);

struct SynthTaskConfig {
  std::size_t num_classes = 10;
  std::size_t dim = 32;
  std::size_t modes_per_class = 3;
  double class_sep = 3.0;      // scale of class/mode mean vectors
  double mode_spread = 1.2;    // how far modes sit from the class mean
  double noise = 1.0;          // per-component sample noise
  double label_noise = 0.03;   // fraction of mislabeled training samples
  std::size_t train_per_class = 400;
  std::size_t test_per_class = 100;

  BackdoorKind backdoor_kind = BackdoorKind::kSemantic;
  int backdoor_source = 1;       // paper: 'cars'
  int backdoor_target = 2;       // paper: 'birds'
  double trigger_strength = 2.5; // shift of the backdoor mode
  std::size_t backdoor_train_size = 200;
  std::size_t backdoor_test_size = 100;
};

struct SynthTask {
  SynthTaskConfig config;
  Dataset train;
  Dataset test;
  Dataset backdoor_train;  // labelled with the TRUE (source) class
  Dataset backdoor_test;   // labelled with the TRUE (source) class
};

/// CIFAR-10 surrogate: 10 classes, semantic sub-population backdoor
/// ('cars with striped background' -> 'birds').
SynthTaskConfig synth_vision10_config();

/// FEMNIST surrogate: 62 classes, label-flipping backdoor; source class
/// chosen as the attacker's best-represented class by the experiment
/// harness, target uniform among the rest (paper §VI-A).
SynthTaskConfig synth_femnist62_config();

/// Generates all four datasets from the config.
SynthTask make_synth_task(const SynthTaskConfig& config, Rng& rng);

/// The fixed additive pattern used by kTrigger backdoors: zero outside
/// the first `trigger_patch_dims` feature dimensions, `trigger_strength`
/// inside. Deterministic — the "pixel patch" every attacker stamps.
std::vector<float> trigger_pattern(const SynthTaskConfig& config);

/// Number of feature dims the trigger patch occupies.
constexpr std::size_t kTriggerPatchDims = 6;

/// Stamps (adds) a trigger pattern onto a sample's features.
void apply_trigger(std::span<float> x, std::span<const float> pattern);

}  // namespace baffle
