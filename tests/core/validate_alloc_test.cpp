// A warm validator scores a moved window without touching the heap: the
// window record's slots, the profile tallies, τ/φ scratch and the
// registry counters all reuse storage kept across rounds.

#include <gtest/gtest.h>

#include <vector>

#include "core/validate.hpp"
#include "data/synth.hpp"
#include "support/alloc_counter.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

TEST(ValidatorSteadyState, MovedWindowValidatesWithoutAllocating) {
  // One pool worker: the engine's tiles run on this thread, so the count
  // covers the whole call and nothing else.
  const ScopedGlobalPool pool(1);
  Rng rng(21);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 10;
  cfg.test_per_class = 12;
  const SynthTask task = make_synth_task(cfg, rng);
  const MlpConfig arch{{cfg.dim, 16, cfg.num_classes}};
  Mlp model(arch);
  model.init(rng);
  std::vector<ParamVec> ring;
  for (int i = 0; i < 40; ++i) {
    ParamVec params = model.parameters();
    for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.05));
    ring.push_back(std::move(params));
  }
  // s = 1 is the server (every round), s = 5 a client sampled one round
  // in five: the first commit is the promoted candidate.
  for (const std::size_t shift : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE(shift);
    const std::size_t lookback = 20;
    ModelHistory history(lookback + 1);
    std::uint64_t version = 0;
    history.push(version, ring[0]);
    ValidatorConfig vcfg;
    vcfg.lookback = lookback;
    Validator validator(task.test, arch, vcfg);
    for (int round = 0; round < 40; ++round) {
      const ModelWindow window = history.window_shared(lookback + 1);
      const ParamVec& candidate = ring[(version + 1) % ring.size()];
      const std::size_t before = heap_allocations();
      const ValidationOutcome outcome = validator.validate(candidate, window);
      const std::size_t allocations = heap_allocations() - before;
      // Warm-up: the window fills over the first ℓ commits.
      if (round >= 30) {
        EXPECT_FALSE(outcome.abstained);
        EXPECT_EQ(allocations, 0u) << "round " << round;
      }
      validator.notify_commit(++version, candidate);
      history.push(version, candidate);
      for (std::size_t i = 1; i < shift; ++i) {
        ++version;
        history.push(version, ring[version % ring.size()]);
      }
    }
  }
}

}  // namespace
}  // namespace baffle
