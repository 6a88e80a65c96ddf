#include "nn/train.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/scratch_lease.hpp"

namespace baffle {

TrainStats train_sgd(Mlp& model, const Matrix& x, std::span<const int> labels,
                     const TrainConfig& config, Rng& rng) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("train_sgd: label count mismatch");
  }
  if (x.rows() == 0) return {};
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_sgd: batch_size == 0");
  }

  const float lr = config.sgd.learning_rate;
  if (!(std::isfinite(lr) && lr > 0.0f)) {
    throw std::invalid_argument(
        "train_sgd: learning_rate must be finite and positive");
  }
  // Leased, not thread_local: should a step's GEMM fan out, its
  // help-draining wait can run another client's train_sgd on this
  // thread, and that call must take the next slot, not this one.
  const ScratchLease<TrainWorkspace> lease;
  TrainWorkspace& ws = *lease;
  ws.order.resize(x.rows());
  std::iota(ws.order.begin(), ws.order.end(), std::size_t{0});

  TrainStats stats;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(ws.order);
    for (std::size_t start = 0; start < ws.order.size();
         start += config.batch_size) {
      const std::size_t count =
          std::min(config.batch_size, ws.order.size() - start);
      ws.batch.resize(count, x.cols());
      ws.batch_labels.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t src = ws.order[start + i];
        auto dst = ws.batch.row(i);
        auto row = x.row(src);
        std::copy(row.begin(), row.end(), dst.begin());
        ws.batch_labels[i] = labels[src];
      }
      model.compute_gradients(ws.batch, ws.batch_labels, ws);
      sgd_step(model, lr);
      ++stats.steps;
    }
  }
  return stats;
}

std::vector<float> train_update(const Mlp& global, const Matrix& x,
                                std::span<const int> labels,
                                const TrainConfig& config, Rng& rng) {
  const LeasedMlp local(global.config());
  local->copy_parameters_from(global);
  train_sgd(*local, x, labels, config, rng);
  std::vector<float> update(global.num_params());
  local->parameter_delta_into(global, update);
  return update;
}

}  // namespace baffle
