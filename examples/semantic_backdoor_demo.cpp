// Semantic-backdoor anatomy: shows the attacker's view of a model-
// replacement injection — how the poisoned blend is built, what the
// boosted update does to the global model, and why per-class error
// rates betray it even though the trigger sub-population never appears
// in any defender's data.

#include <cstdio>

#include "attack/model_replacement.hpp"
#include "metrics/confusion.hpp"
#include "nn/train.hpp"
#include "tensor/ops.hpp"

int main() {
  using namespace baffle;
  Rng rng(99);

  // 1. The task: 10 classes; class 1 ('cars') has a sub-population with
  //    a distinctive feature ('striped background') that the attacker
  //    wants classified as class 2 ('birds').
  const SynthTaskConfig cfg = synth_vision10_config();
  const SynthTask task = make_synth_task(cfg, rng);
  std::printf("task: %zu classes, %zu train / %zu test samples\n",
              cfg.num_classes, task.train.size(), task.test.size());
  std::printf("backdoor pool: %zu instances of class %d carrying the "
              "semantic trigger\n\n",
              task.backdoor_train.size(), cfg.backdoor_source);

  // 2. A stable global model (as after many FL rounds).
  Mlp global(MlpConfig{{cfg.dim, 64, cfg.num_classes}});
  global.init(rng);
  TrainConfig pre;
  pre.epochs = 30;
  pre.batch_size = 64;
  pre.sgd.learning_rate = 0.05f;
  train_sgd(global, task.train.features(), task.train.labels(), pre, rng);
  std::printf("stable global model: main accuracy %.3f, backdoor accuracy "
              "%.3f\n",
              evaluate_confusion(global, task.test).accuracy(),
              backdoor_accuracy(global, task.backdoor_test,
                                cfg.backdoor_target));

  // 3. The attacker's poisoned blend: clean shard + relabelled backdoor
  //    instances (multi-task learning).
  const BackdoorTask bd{BackdoorKind::kSemantic, cfg.backdoor_source,
                        cfg.backdoor_target};
  const Dataset attacker_shard = task.train.sample(400, rng);
  const Dataset blend =
      make_poisoned_training_set(attacker_shard, task.backdoor_train, bd,
                                 /*poison_fraction=*/0.3, rng);
  std::printf("attacker blend: %zu samples (%zu clean + ~30%% poisoned)\n",
              blend.size(), attacker_shard.size());

  // 4. Craft the replacement update with the FedAvg boost γ = N/λ.
  ModelReplacementConfig attack;
  attack.task = bd;
  attack.poison_fraction = 0.3;
  attack.boost = 100.0;  // N = 100, λ = 1
  attack.train.epochs = 8;
  attack.train.sgd.learning_rate = 0.05f;
  const ParamVec update = craft_replacement_update(
      global, attacker_shard, task.backdoor_train, attack, rng);
  std::printf("boosted update norm: %.1f (honest updates are ~100x "
              "smaller)\n\n",
              l2_norm(update));

  // 5. What aggregation does: delta = (λ/N) * U_adv ≈ L_adv - G.
  Mlp poisoned = global;
  ParamVec delta = update;
  scale(delta, 1.0f / 100.0f);
  poisoned.add_to_parameters(delta);
  std::printf("after aggregation, the global model is replaced:\n");
  std::printf("  main accuracy:     %.3f\n",
              evaluate_confusion(poisoned, task.test).accuracy());
  std::printf("  backdoor accuracy: %.3f  <- 'striped cars' now 'birds'\n\n",
              backdoor_accuracy(poisoned, task.backdoor_test,
                                cfg.backdoor_target));

  // 6. The defender's signal: per-class error rates on clean data,
  //    which contain NO backdoor instances.
  const auto before = evaluate_confusion(global, task.test)
                          .per_class_error_rates();
  const auto after = evaluate_confusion(poisoned, task.test)
                         .per_class_error_rates();
  std::printf("per-class error rate shift on clean validation data:\n");
  for (std::size_t y = 0; y < cfg.num_classes; ++y) {
    std::printf("  class %zu: %.3f -> %.3f%s\n", y, before[y], after[y],
                static_cast<int>(y) == cfg.backdoor_source
                    ? "   <- source-class side effect"
                    : "");
  }
  std::printf("\nthe backdoor was optimized on the attacker's data only;\n"
              "its side effects on everyone else's data are what BaFFLe's\n"
              "validation function detects.\n");
  return 0;
}
