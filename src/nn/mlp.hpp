#pragma once
// Multi-layer perceptron classifier: ReLU hidden layers and a linear
// output layer (softmax lives in the loss), the stand-in for the
// paper's ReLU networks.
//
// FL treats models as flat parameter vectors (for averaging, scaling and
// secure aggregation), so the Mlp exposes get/set of a contiguous
// std::vector<float> of all weights and biases, in a fixed layer order.
// The Mlp trains; inference runs on the evaluation engine
// (nn/multi_eval.hpp), which reads those flat parameters in place.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "util/scratch_lease.hpp"
#include "util/serialization.hpp"

namespace baffle {

/// Architecture spec: layer widths [in, h1, ..., out].
struct MlpConfig {
  std::vector<std::size_t> layer_dims;  // >= 2 entries
};

/// Scratch buffers for the training path. One SGD step gathers a batch
/// and runs forward, loss gradient and backward entirely inside these
/// buffers (the step then updates the layers in place). train_sgd
/// leases one per thread and nesting depth and reuses it across steps,
/// clients and rounds, so the steady-state training loop is
/// allocation-free after warm-up — the per-round client-side cost
/// BaFFLe argues must stay cheap.
struct TrainWorkspace {
  Matrix batch;                    // gathered minibatch (rows = samples)
  std::vector<int> batch_labels;
  std::vector<Matrix> acts;        // hidden layers' outputs
  Matrix dlogits;                  // logits, then dL/dlogits: batch x
                                   // classes, or classes x batch when
                                   // the output layer runs class-major
  Matrix dx;                       // backward ping-pong buffer
  Matrix in_t;                     // class-major: the output layer's
                                   // input, transposed
  Matrix wt;                       // class-major: dWᵀ, then Wᵀ
  std::vector<std::size_t> order;  // epoch shuffle order
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  /// Re-randomize all parameters.
  void init(Rng& rng);

  /// One SGD step's gradients for the batch `x` (one sample per row)
  /// and its `labels`: forward, the softmax cross-entropy gradient of
  /// the batch's mean loss, and backward, entirely in `ws`, so nothing
  /// is allocated once the workspace is warm. OVERWRITES the layers'
  /// gradient buffers (exactly one backward per step). An output layer
  /// no wider than one 16-lane GEMM panel runs class-major, the batch on
  /// the lanes (DESIGN.md §10); every gradient byte equals the
  /// row-major step's. Throws std::invalid_argument on a label count
  /// that is not the batch or a label outside [0, output_dim()).
  void compute_gradients(const Matrix& x, std::span<const int> labels,
                         TrainWorkspace& ws);

  std::size_t num_params() const { return num_params_; }
  std::size_t input_dim() const { return config_.layer_dims.front(); }
  std::size_t output_dim() const { return config_.layer_dims.back(); }
  const MlpConfig& config() const { return config_; }

  /// Flat parameter access, layer-major: for each layer, weights
  /// row-major then bias.
  std::vector<float> parameters() const;
  void set_parameters(std::span<const float> flat);
  /// As above, straight from wire bytes: one copy per block, no staging
  /// vector.
  void set_parameters(const F32View& flat);

  /// Copies `from`'s weights and biases, leaving the gradient buffers as
  /// they are (the next compute_gradients overwrites them): what a local
  /// model needs of the global one. `from` must have the same layer dims.
  void copy_parameters_from(const Mlp& from);

  /// out = parameters() − base.parameters() in one pass (a client's
  /// update L − G), written into a caller-owned buffer
  /// (out.size() == num_params()). `base` must have the same layer dims.
  void parameter_delta_into(const Mlp& base, std::span<float> out) const;

  /// parameters += delta (applying an aggregated or crafted update).
  void add_to_parameters(std::span<const float> delta);

  std::vector<Dense>& layers() { return layers_; }
  const std::vector<Dense>& layers() const { return layers_; }

 private:
  MlpConfig config_;
  std::vector<Dense> layers_;
  std::size_t num_params_ = 0;
};

/// An Mlp leased per thread and nesting depth (util/scratch_lease.hpp)
/// for a model a call fills, trains or reads, and then drops: a client's
/// local model, or a training broadcast read off the wire. The slot
/// keeps its layers between leases and is rebuilt only when `config`
/// differs from its last holder's, so a warm lease allocates nothing.
/// Its parameters are whatever the last holder left: set them first.
class LeasedMlp {
 public:
  explicit LeasedMlp(const MlpConfig& config);

  Mlp& operator*() const { return **lease_; }
  Mlp* operator->() const { return &**lease_; }

 private:
  ScratchLease<std::optional<Mlp>> lease_;
};

}  // namespace baffle
