#pragma once
// Batched multi-model evaluation engine (DESIGN.md §14, §17): the
// library's one inference path. Validators, accuracy tracking,
// evaluate_confusion, backdoor_accuracy and the adaptive attacker's
// behaviour cloning all predict through it.
//
// The validator evaluates ℓ+1 models per round against ONE fixed
// dataset. A forward pass per model would pay the whole pipeline each
// time: materialize parameters into a model, stream X through GEMM +
// bias + ReLU, argmax. This engine inverts the loop: the features are
// packed ONCE as Xᵀ panels (pack_bt_panels: 16 sample-columns per
// panel) at bind() time, and every model is evaluated by streaming its
// layers over groups of kGroupPanels consecutive panels with fused
// transposed-layer kernels —
// out = Wᵀ·in with the bias add and ReLU applied while the tile is
// still in registers, each weight broadcast feeding every panel of the
// group, the weights read in place from the flat parameter vector (no
// set_parameters, no per-model packing), and each group's activations
// chained entirely in cache.
//
// Parallel execution (DESIGN.md §17): predict_many decomposes into
// independent (model-chunk × panel-block) tiles on the global thread
// pool. Every tile reads the shared immutable Xᵀ pack plus each model's
// weights in place and writes a DISJOINT slice of predictions/margins
// with the exact per-element arithmetic of the serial loop — no
// reductions are reordered — so the output is byte-identical for any
// pool size, including one worker (the inline loop). All mutable
// per-call state lives in per-(thread, nesting-depth) leased scratch;
// the engine itself is immutable after bind().
//
// Predictions are BIT-IDENTICAL to the training forward on the same
// kernel arm (Dense::forward_eval per layer, then each row's first
// maximum), which tests/support/predict_oracle.hpp keeps as the test
// oracle. The fused kernels keep that forward's accumulation order
// (fold-left over the inner dimension from a zero accumulator, one
// post-sum bias add, same ReLU and first-max argmax), so error
// profiles, votes, φ and τ are unchanged byte-for-byte.

#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "tensor/aligned.hpp"
#include "tensor/ops.hpp"

namespace baffle {

/// One model of a batched evaluation: flat parameters (Mlp layout:
/// per layer, weights row-major then bias) plus the destination for its
/// per-sample predictions (size = bound sample count). `margins`, when
/// non-empty (size = bound sample count), receives the per-sample top-2
/// logit margin — the parity tests use it to compare the parallel
/// tiling against the serial loop beyond the argmax.
struct MultiEvalModel {
  std::span<const float> params;
  std::span<std::size_t> preds;
  std::span<float> margins = {};
};

class MultiModelEval {
 private:
  struct LayerView {
    const float* w = nullptr;     // (d_in, d_out) row-major
    const float* bias = nullptr;  // d_out
    std::size_t d_in = 0;
    std::size_t d_out = 0;
  };

 public:
  explicit MultiModelEval(MlpConfig config);

  // Movable so enclosing validators can be returned by value during
  // single-threaded setup.
  MultiModelEval(MultiModelEval&&) noexcept = default;
  MultiModelEval& operator=(MultiModelEval&&) noexcept = default;
  MultiModelEval(const MultiModelEval&) = delete;
  MultiModelEval& operator=(const MultiModelEval&) = delete;

  /// Packs the evaluation features Xᵀ once. `x` is (samples, dim) with
  /// dim = layer_dims.front(); the reference is not retained. Rebinding
  /// replaces the pack. Setup-time only: bind() must not run
  /// concurrently with predicts.
  void bind(const Matrix& x);
  bool bound() const { return samples_ > 0; }
  std::size_t bound_samples() const { return samples_; }

  /// Evaluates a batch of models over (model-chunk × panel-block)
  /// tiles: each tile streams a block of packed X panels through a
  /// chunk of models, so the shared operand's memory traffic is paid
  /// once per block instead of once per model, and the tiles fan out
  /// across ThreadPool::global() whenever it has more than one worker.
  void predict_many(std::span<const MultiEvalModel> models);

  /// Models per tile: bounds the model count one tile streams over its
  /// panel block.
  static constexpr std::size_t kModelChunk = 16;
  /// Packed X panels per tile (16 panels × 16 columns = 256 samples):
  /// one model's weights are fetched once per tile and stay L1-hot
  /// across the tile's panels, while the X block is re-read per model
  /// as a cheap sequential L2 stream.
  static constexpr std::size_t kPanelBlock = 16;
  /// Panels one eval_layer_f32 call covers: the AVX-512 tile loads one
  /// row of each of the group's panels per weight broadcast (DESIGN.md
  /// §14), and the layers chain group by group through the scratch.
  static constexpr std::size_t kGroupPanels = 4;

  // Internal scratch payloads. Public ONLY so the .cpp's thread-local
  // lease storage (util/scratch_lease.hpp: per-(thread, nesting-depth)
  // slots) can default-construct them; they are not part of the API.
  //
  // PanelScratch is leased per tile by whichever worker runs it: the
  // activation ping-pong buffers, kGroupPanels panels each.
  struct PanelScratch {
    AlignedFloatVec panel_a;
    AlignedFloatVec panel_b;
  };
  // CallScratch is leased once per predict_many by the calling thread
  // and shared read-only by its tiles.
  struct CallScratch {
    std::vector<LayerView> views;  // models × num_layers
  };

 private:
  /// Fills `out[0 .. num_layers_)` with the layer views of one flat
  /// parameter vector (Mlp layout: per layer, weights row-major then
  /// bias).
  void fill_layer_views(std::span<const float> params, LayerView* out) const;

  /// Runs one model over `panels` (≤ kGroupPanels) consecutive packed
  /// panels, leaving their logits panels in the leased scratch buffer it
  /// returns.
  const float* eval_panels(std::span<const LayerView> layers,
                           const float* xpanels, std::size_t panels,
                           PanelScratch& ps) const;

  /// One (model-chunk × panel-block) tile: models [m0, mend) over
  /// packed panels [jb, jend), writing the disjoint prediction/margin
  /// slices of exactly those (model, sample) pairs.
  void run_tile(std::span<const MultiEvalModel> models, std::size_t m0,
                std::size_t mend, std::size_t jb, std::size_t jend,
                const CallScratch& cs, PanelScratch& ps) const;

  MlpConfig config_;
  std::size_t num_layers_ = 0;  // dense layers (= layer_dims - 1)
  std::size_t num_params_ = 0;
  std::size_t max_width_ = 0;   // widest layer (incl. input)
  std::size_t samples_ = 0;
  std::size_t panels_ = 0;

  PackedB xpack_;  // fp32 Xᵀ panels — always present once bound
};

/// One-off inference: binds an engine to `x` for this call and writes
/// the class that the model with flat parameters `params` (Mlp layout,
/// layer dims `arch`) predicts for each row of `x` into `out`
/// (out.size() == x.rows()). Throws std::invalid_argument when x.cols()
/// is not the model's input width. A caller that evaluates many models
/// on one dataset binds its own engine once (Validator,
/// AccuracyTracker).
void predict_classes(const MlpConfig& arch, std::span<const float> params,
                     const Matrix& x, std::span<std::size_t> out);

/// Scratch of evaluate_confusion's and backdoor_accuracy's workspace
/// overloads: the prediction buffer, reused across calls.
struct MlpEvalWorkspace {
  std::vector<std::size_t> predictions;
};

}  // namespace baffle
