#pragma once
// Multi-layer perceptron classifier.
//
// FL treats models as flat parameter vectors (for averaging, scaling and
// secure aggregation), so the Mlp exposes get/set of a contiguous
// std::vector<float> of all weights and biases, in a fixed layer order.

#include <memory>
#include <span>
#include <vector>

#include "nn/dense.hpp"

namespace baffle {

/// Architecture spec: layer widths [in, h1, ..., out] plus the hidden
/// activation (output layer is always linear; softmax lives in the loss).
struct MlpConfig {
  std::vector<std::size_t> layer_dims;           // >= 2 entries
  Activation hidden_activation = Activation::kRelu;
};

/// Scratch buffers for the inference path. Reusing one workspace across
/// evaluations (the validator runs ℓ+1 of them per round against the
/// same dataset) keeps the hot loop allocation-free after warm-up.
struct MlpEvalWorkspace {
  Matrix a;
  Matrix b;
  std::vector<std::size_t> predictions;  // scratch for whole-set evals
};

/// Scratch buffers for the training path. One SGD step gathers a batch,
/// runs forward, loss, backward and the optimizer step entirely inside
/// these buffers, so a workspace reused across steps (and across
/// clients) makes the steady-state training loop allocation-free after
/// warm-up — the per-round client-side cost BaFFLe argues must stay
/// cheap.
struct TrainWorkspace {
  Matrix batch;                    // gathered minibatch (rows = samples)
  std::vector<int> batch_labels;
  std::vector<Matrix> acts;        // per-layer outputs; back() = logits
  Matrix dlogits;                  // loss gradient w.r.t. logits
  Matrix dx;                       // backward ping-pong buffer
  std::vector<float> grad;         // flat gradient (optimizer scratch)
  std::vector<float> delta;        // flat update (optimizer scratch)
  std::vector<float> params;       // flat params (weight-decay scratch)
  std::vector<std::size_t> order;  // epoch shuffle order
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  /// Re-randomize all parameters.
  void init(Rng& rng);

  /// Forward pass: logits for a batch (rows = samples).
  Matrix forward(const Matrix& x);

  /// Backward pass from dL/dlogits; accumulates parameter gradients.
  void backward(Matrix dlogits);

  void zero_grad();

  /// Training forward pass through workspace buffers: ws.acts[i] holds
  /// layer i's activated output, so nothing is cached in the layers and
  /// nothing is allocated once the workspace is warm. Returns the logits
  /// (= ws.acts.back()).
  const Matrix& forward_train(const Matrix& x, TrainWorkspace& ws) const;

  /// Backward pass from ws.dlogits using the activations left in `ws` by
  /// forward_train on the same `x`. OVERWRITES the layers' gradient
  /// buffers (exactly one backward per step — no zero_grad needed).
  void backward_train(const Matrix& x, TrainWorkspace& ws);

  /// Rows per inference chunk: large enough to keep GEMM efficient,
  /// small enough that a chunk's activations stay cache-resident.
  static constexpr std::size_t kPredictChunkRows = 512;

  /// Predicted class per row of x. Runs the inference-only forward pass
  /// (no activation caching), so it is const and thread-safe.
  std::vector<std::size_t> predict(const Matrix& x) const;

  /// Predicted class per row of x, written into out (out.size() ==
  /// x.rows()). Processes chunk_rows rows at a time through ws without
  /// allocating once the workspace is warm.
  void predict_into(ConstMatrixView x, std::span<std::size_t> out,
                    MlpEvalWorkspace& ws,
                    std::size_t chunk_rows = kPredictChunkRows) const;

  std::size_t num_params() const { return num_params_; }
  std::size_t input_dim() const { return config_.layer_dims.front(); }
  std::size_t output_dim() const { return config_.layer_dims.back(); }
  const MlpConfig& config() const { return config_; }

  /// Flat parameter (or gradient) access, layer-major: for each layer,
  /// weights row-major then bias.
  std::vector<float> parameters() const;
  void set_parameters(std::span<const float> flat);
  std::vector<float> gradients() const;

  /// Allocation-free variants: write the flat vector into a caller-owned
  /// buffer (out.size() == num_params()).
  void parameters_into(std::span<float> out) const;
  void gradients_into(std::span<float> out) const;
  /// out = parameters() − base.parameters() in one pass (a client's
  /// update L − G). `base` must have the same layer dims.
  void parameter_delta_into(const Mlp& base, std::span<float> out) const;

  /// parameters += delta (used by the server when applying aggregated
  /// updates, and by SGD).
  void add_to_parameters(std::span<const float> delta);

  std::vector<Dense>& layers() { return layers_; }
  const std::vector<Dense>& layers() const { return layers_; }

 private:
  MlpConfig config_;
  std::vector<Dense> layers_;
  std::size_t num_params_ = 0;
};

}  // namespace baffle
