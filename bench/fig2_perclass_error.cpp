// Figure 2: prediction behavior of clean vs poisoned models — per-class
// error rates on a held-out set. A genuine update barely moves any
// class; a model-replacement update visibly shifts the backdoor source
// and target classes, which is the signal Algorithm 2 keys on.

#include <cstdio>

#include "attack/model_replacement.hpp"
#include "bench_common.hpp"
#include "metrics/confusion.hpp"
#include "nn/train.hpp"

using namespace baffle;

int main() {
  print_banner("Figure 2 — per-class error rate, clean vs poisoned",
               "BaFFLe (ICDCS'21), Fig. 2");

  Rng rng(2026);
  SynthTaskConfig task_cfg = synth_vision10_config();
  const SynthTask task = make_synth_task(task_cfg, rng);
  const MlpConfig arch{{task_cfg.dim, 64, task_cfg.num_classes}};

  // Stable global model.
  Mlp global(arch);
  global.init(rng);
  TrainConfig pre;
  pre.epochs = 30;
  pre.batch_size = 64;
  pre.sgd.learning_rate = 0.05f;
  train_sgd(global, task.train.features(), task.train.labels(), pre, rng);

  // A genuine next model: one more light training pass.
  Mlp clean_next = global;
  TrainConfig slice;
  slice.epochs = 1;
  slice.batch_size = 64;
  slice.sgd.learning_rate = 0.01f;
  train_sgd(clean_next, task.train.features(), task.train.labels(), slice,
            rng);

  // A poisoned next model: the attacker's replacement local model.
  ModelReplacementConfig attack;
  attack.task = BackdoorTask{BackdoorKind::kSemantic,
                             task_cfg.backdoor_source,
                             task_cfg.backdoor_target};
  attack.poison_fraction = 0.3;
  attack.boost = 1.0;  // applied directly, no aggregation to defeat
  attack.train.epochs = 8;
  attack.train.sgd.learning_rate = 0.05f;
  const ParamVec update = craft_replacement_update(
      global, task.train.sample(400, rng), task.backdoor_train, attack, rng);
  Mlp poisoned = global;
  poisoned.add_to_parameters(update);

  const auto cm_prev = evaluate_confusion(global, task.test);
  const auto cm_clean = evaluate_confusion(clean_next, task.test);
  const auto cm_poisoned = evaluate_confusion(poisoned, task.test);

  const auto prev = cm_prev.per_class_error_rates();
  const auto clean = cm_clean.per_class_error_rates();
  const auto bad = cm_poisoned.per_class_error_rates();

  std::printf("backdoor: source class %d ('cars w/ stripes') -> target %d"
              " ('birds')\n\n",
              task_cfg.backdoor_source, task_cfg.backdoor_target);
  TextTable table({"class", "err prev G", "err clean G'", "err poisoned G'",
                   "|clean-prev|", "|poisoned-prev|"});
  CsvWriter csv(bench::csv_path("fig2"),
                {"class", "err_prev", "err_clean", "err_poisoned"});
  for (std::size_t y = 0; y < task_cfg.num_classes; ++y) {
    table.row({std::to_string(y), format_rate(prev[y]),
               format_rate(clean[y]), format_rate(bad[y]),
               format_rate(std::abs(clean[y] - prev[y])),
               format_rate(std::abs(bad[y] - prev[y]))});
    csv.row({std::to_string(y), CsvWriter::num(prev[y]),
             CsvWriter::num(clean[y]), CsvWriter::num(bad[y])});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("overall accuracy: prev %.3f | clean %.3f | poisoned %.3f\n",
              cm_prev.accuracy(), cm_clean.accuracy(),
              cm_poisoned.accuracy());
  std::printf("backdoor accuracy of poisoned model: %.3f\n",
              backdoor_accuracy(poisoned, task.backdoor_test,
                                task_cfg.backdoor_target));
  std::printf("\npaper shape: clean updates leave per-class errors nearly\n"
              "unchanged; the poisoned model shifts the source/target\n"
              "classes by an order of magnitude more. CSV: %s\n",
              bench::csv_path("fig2").c_str());
  return 0;
}
