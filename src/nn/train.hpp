#pragma once
// Mini-batch SGD training loop over raw (features, labels) arrays.
// Dataset <-> Matrix conversion lives in src/data; keeping the loop at
// this level avoids a dependency cycle and lets tests drive it directly.

#include <span>

#include "nn/sgd.hpp"
#include "util/rng.hpp"

namespace baffle {

struct TrainConfig {
  std::size_t epochs = 2;      // paper: 2 local epochs
  std::size_t batch_size = 32;
  SgdConfig sgd;
};

struct TrainStats {
  std::size_t steps = 0;
};

/// Trains `model` in place. `x` has one sample per row; `labels` are the
/// matching integer classes. Batch order is reshuffled per epoch with
/// `rng`. Each step is Mlp::compute_gradients, then sgd_step. The batch
/// gather, activations and loss gradient live in scratch leased per
/// thread and nesting depth (util/scratch_lease.hpp), so a call performs
/// zero heap allocations once its thread's slot is warm. Throws
/// std::invalid_argument on a label count mismatch and, when `x` has
/// rows, on a zero batch size, a learning rate that is not finite and
/// positive, or (at its batch's step) a label outside the model's
/// classes.
TrainStats train_sgd(Mlp& model, const Matrix& x, std::span<const int> labels,
                     const TrainConfig& config, Rng& rng);

/// A local update U = L − G: train_sgd on a LeasedMlp holding a copy of
/// `global`'s parameters, whose difference from `global` is written
/// straight into the returned vector. A call on a warm thread allocates
/// that vector and nothing else. `global` is only read.
std::vector<float> train_update(const Mlp& global, const Matrix& x,
                                std::span<const int> labels,
                                const TrainConfig& config, Rng& rng);

}  // namespace baffle
