#pragma once
// Batched multi-model evaluation engine (DESIGN.md §14, §17).
//
// The validator evaluates ℓ+1 models per round against ONE fixed
// dataset. Mlp::predict_into re-runs the whole inference pipeline per
// model: materialize parameters into a scratch model, stream X
// through GEMM + bias + activation (packing the weights per call where
// the GEMM tile does not read them in place), argmax. This
// engine inverts the loop: the features are packed ONCE as Xᵀ panels
// (pack_bt_panels: 16 sample-columns per panel) at bind() time, and
// every model is evaluated by streaming its layers over the shared
// panels with fused transposed-layer kernels — out = Wᵀ·in with the
// bias add and ReLU applied while the tile is still in registers, the
// weights read in place from the flat parameter vector (no
// set_parameters, no per-model packing), and each panel's activations
// chained entirely in cache.
//
// Parallel execution (DESIGN.md §17): predict_many decomposes into
// independent (model-chunk × panel-block) tiles on the global thread
// pool. Every tile reads the shared immutable Xᵀ pack plus per-model
// weight encodings and writes a DISJOINT slice of predictions/margins
// with the exact per-element arithmetic of the serial loop — no
// reductions are reordered — so the output is byte-identical for any
// thread count, including the serial fallback (MlpEvalWorkspace::
// parallel = false). All mutable per-call state lives in per-(thread,
// nesting-depth) leased scratch; the engine itself is immutable after
// bind() apart from the mutex-guarded lazy reduced-precision mirrors.
//
// Precision contract (MlpEvalWorkspace::precision):
//  - kFp32 (default): predictions are BIT-IDENTICAL to
//    Mlp::predict_into on the same kernel arm. The fused kernels keep
//    the sequential path's accumulation order (fold-left over the inner
//    dimension from a zero accumulator, one post-sum bias add, same
//    ReLU and first-max argmax), so confusion matrices, votes, φ and τ
//    are unchanged byte-for-byte.
//  - kBf16 / kInt8: evaluation-only reduced-precision arms. Logits are
//    approximate; predictions are protected by a top-2 margin guard —
//    any sample whose winning logit leads by less than the guard margin
//    is re-evaluated through the fp32 path, so only confidently-led
//    argmaxes may rely on reduced-precision arithmetic. Training and
//    every default path stay fp32.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nn/mlp.hpp"
#include "tensor/aligned.hpp"
#include "tensor/ops.hpp"
#include "util/sync.hpp"

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
  // single-threaded setup. The mirror mutex is not moved — each engine
  // owns a fresh one — and moving an engine another thread is using is
  // a race, like moving any synchronized container.
  MultiModelEval(MultiModelEval&& other) noexcept;
  MultiModelEval& operator=(MultiModelEval&& other) noexcept;
  MultiModelEval(const MultiModelEval&) = delete;
  MultiModelEval& operator=(const MultiModelEval&) = delete;

  /// Packs the evaluation features Xᵀ once. `x` is (samples, dim) with
  /// dim = layer_dims.front(); the reference is not retained. Rebinding
  /// replaces the pack (and drops any reduced-precision mirrors).
  /// Setup-time only: bind() must not run concurrently with predicts.
  void bind(const Matrix& x);
  bool bound() const { return samples_ > 0; }
  std::size_t bound_samples() const { return samples_; }

  /// Evaluates one model against the bound features. `out.size()` must
  /// equal bound_samples(). ws.precision selects the arm; ws.parallel
  /// selects pool-tiled vs serial execution (byte-identical results).
  void predict_into(std::span<const float> params,
                    std::span<std::size_t> out, MlpEvalWorkspace& ws);

  /// Evaluates a batch of models over (model-chunk × panel-block)
  /// tiles: each tile streams a block of packed X panels through a
  /// chunk of models, so the shared operand's memory traffic is paid
  /// once per block instead of once per model, and the tiles fan out
  /// across the global pool when ws.parallel is set.
  void predict_many(std::span<const MultiEvalModel> models,
                    MlpEvalWorkspace& ws);

  /// Safety factor on the per-(model, sample) guard threshold. The
  /// threshold is not a fixed constant: for every model the engine
  /// derives per-logit error VARIANCE coefficients from the actual
  /// quantization step sizes (per-row weight scales for int8, relative
  /// 2^-8 rounding for bf16), propagates them through the downstream
  /// fp32 layers (variances mix linearly across a dense layer), and
  /// scales them per sample by that sample's own magnitude statistics
  /// (||x||^2 for the weight-step term, the sample's quantization step
  /// for the input-step term) — so the guard widens for drifted models
  /// AND for large-norm samples instead of relying on one scenario's
  /// calibration. The flag test is sqrt-free and class-aware:
  /// margin^2 < 2 * kappa^2 * (variance of the predicted class + the
  /// worst other class); kappa is calibrated empirically
  /// (BAFFLE_GUARD_KAPPA sweep, DESIGN.md §14) against the observed
  /// failure boundary of kappa ~= 1.0 on 40-step drift chains across
  /// relu/tanh, H in {64,128} and a 2-hidden-layer net (1.6M argmax
  /// decisions per config): int8 carries 1.5x headroom (its variance
  /// model is exact — the quantization steps are known constants),
  /// bf16 carries 2x (its 2^-8 relative-step model is itself a bound).
  static constexpr float kInt8GuardKappa = 1.5f;
  static constexpr float kBf16GuardKappa = 2.0f;

  /// Models per tile: bounds one tile's working set of weight
  /// encodings (reduced-precision arms re-encode weights per model).
  static constexpr std::size_t kModelChunk = 16;
  /// Packed X panels per tile (16 panels × 16 columns = 256 samples):
  /// one model's weights are fetched once per tile and stay L1-hot
  /// across the tile's panels, while the X block is re-read per model
  /// as a cheap sequential L2 stream.
  static constexpr std::size_t kPanelBlock = 16;

  // Internal scratch payloads. Public ONLY so the .cpp's thread-local
  // lease storage (per-(thread, nesting-depth) slots, the PR 5
  // PackScratchLease pattern) can default-construct them; they are not
  // part of the API.
  //
  // PanelScratch is leased per tile / per encode / per guard task by
  // whichever worker runs it: activation ping-pong panels plus the
  // guard-propagation vectors.
  struct PanelScratch {
    AlignedFloatVec panel_a;
    AlignedFloatVec panel_b;
    std::vector<std::uint16_t> panel_bf16;
    AlignedFloatVec guard_panel;
    std::vector<std::size_t> guard_preds;
    std::vector<float> ehid_a, ehid_b;  // layer-0 variance components
    std::vector<float> err_a, err_b;    // propagation scratch
    std::vector<float> err_tmp;         // propagation ping-pong
  };
  // CallScratch is leased once per predict_many by the calling thread
  // and shared read-only (or disjoint-write) by its tiles: layer views,
  // per-model weight encodings, margins and the guard worklist.
  struct CallScratch {
    std::vector<LayerView> views;           // models × num_layers
    std::vector<float*> margin_ptr;         // per-model margin base
    AlignedFloatVec margins;                // models × samples (guarded)
    std::vector<std::uint16_t> wq_bf16;     // models × weights
    AlignedFloatVec wq_bf16f;               // widened image of wq_bf16
    std::vector<std::int8_t> wq_u8;         // models × padded rows
    AlignedFloatVec wq_scale;               // models × units
    std::vector<std::int32_t> wq_rowsum;    // models × units
    std::vector<float> guard_ga, guard_gb;  // model × class flag factors
    std::vector<std::vector<std::size_t>> flagged;  // per-model samples
    std::vector<std::pair<std::size_t, std::size_t>>
        guard_tasks;  // (model, offset into its flagged list)
  };

 private:
  /// Fills `out[0 .. num_layers_)` with the layer views of one flat
  /// parameter vector (Mlp layout: per layer, weights row-major then
  /// bias).
  void fill_layer_views(std::span<const float> params, LayerView* out) const;

  /// Builds the lazy reduced-precision mirror of the X pack for `prec`
  /// if it is not present yet. Internally synchronized (mirror_mu_):
  /// the first guarded predict_many publishes the mirror, later calls
  /// read it lock-free — the acquire of mirror_mu_ in the ready check
  /// orders those reads after the builder's writes.
  void ensure_pack(EvalPrecision prec);
  void build_bf16_pack() BAFFLE_REQUIRES(mirror_mu_);
  void build_u8_pack() BAFFLE_REQUIRES(mirror_mu_);

  /// Runs one model over one panel, leaving the logits panel in the
  /// leased scratch buffer it returns.
  const float* eval_panel_fp32(std::span<const LayerView> layers,
                               const float* xpanel, PanelScratch& ps) const;
  const float* eval_panel_bf16(std::span<const LayerView> layers,
                               const float* wq, const float* xpanel,
                               PanelScratch& ps) const;
  const float* eval_panel_u8(std::span<const LayerView> layers,
                             const std::int8_t* wq, const float* wscale,
                             const std::int32_t* wrowsum,
                             const std::uint8_t* xpanel, const float* xscale,
                             const float* xoffset, PanelScratch& ps) const;

  /// One (model-chunk × panel-block) tile: models [m0, mend) over
  /// packed panels [jb, jend), writing the disjoint prediction/margin
  /// slices of exactly those (model, sample) pairs.
  void run_tile(std::span<const MultiEvalModel> models, std::size_t m0,
                std::size_t mend, std::size_t jb, std::size_t jend,
                EvalPrecision prec, const CallScratch& cs,
                PanelScratch& ps) const;

  /// Re-decides every flagged (model, sample) pair through the fp32
  /// path. The flag scan runs per model over the (bit-identical)
  /// margins; the re-evaluation is batched ACROSS models into one
  /// worklist of compact 16-sample panels — each task gathers its
  /// samples from the row-major `xrows_` copy (one or two contiguous
  /// cache lines per sample) and the tasks fan out across the pool
  /// alongside every other model's flagged panels (ROADMAP item 4).
  void guard_reeval(std::span<const MultiEvalModel> models,
                    EvalPrecision prec, bool parallel, CallScratch& cs) const;

  /// Per-model guard coefficients: propagates the layer-0 per-unit
  /// error variance components `ps.ehid_a` (weight-step term, scaled
  /// per sample by ||x||^2) and `ps.ehid_b` (input-step term, scaled
  /// per sample by the arm's per-sample step statistic) through the
  /// model's downstream layers and stores PER-CLASS flag-test factors
  /// cs.guard_ga/gb[model * classes + c] — class c's own coefficient
  /// plus the worst other class's — so the scan is
  /// margin^2 < ga[pred_s] * ||x_s||^2 + gb[pred_s] * v_s.
  void guard_error_coeffs(std::span<const LayerView> layers, float kappa,
                          std::size_t model, CallScratch& cs,
                          PanelScratch& ps) const;

  /// Per-model weight re-encoding for the reduced-precision arms.
  /// Independent per model (writes only `model`'s slice of the call
  /// scratch), so the encode phase fans out across the pool.
  void encode_weights_bf16(std::span<const LayerView> layers,
                           std::size_t model, CallScratch& cs,
                           PanelScratch& ps) const;
  void encode_weights_u8(std::span<const LayerView> layers,
                         std::size_t model, CallScratch& cs,
                         PanelScratch& ps) const;

  MlpConfig config_;
  std::size_t num_layers_ = 0;  // dense layers (= layer_dims - 1)
  std::size_t num_params_ = 0;
  std::size_t num_weights_ = 0;  // weight (non-bias) parameter count
  std::size_t max_width_ = 0;    // widest layer (incl. input)
  std::size_t k_pad_ = 0;        // input dim padded to a multiple of 4
  std::size_t samples_ = 0;
  std::size_t panels_ = 0;

  PackedB xpack_;  // fp32 Xᵀ panels — always present once bound

  // Row-major fp32 copy of the bound features plus per-sample guard
  // statistics: the guard re-gathers flagged samples from contiguous
  // rows (cheap) rather than from the 64-byte-strided panel columns,
  // and the flag test scales each sample's threshold by its own
  // magnitude. guard_v_* hold the arm-specific per-sample input-step
  // statistic (u8: step^2; bf16: (2^-8 max|x|)^2).
  AlignedFloatVec xrows_;         // samples x d
  AlignedFloatVec xnorm2_;        // per sample ||x||^2
  AlignedFloatVec guard_v_bf16_;  // per sample (2^-8 max|x|)^2
  AlignedFloatVec guard_v_u8_;    // per sample u8 step^2

  // Lazy reduced-precision mirrors of the X pack. The ready flags are
  // guarded; the mirror buffers themselves are read WITHOUT the lock on
  // the hot path — safe because they are written only before their flag
  // is published under mirror_mu_ and never mutated again until the
  // next (setup-time-exclusive) bind().
  mutable Mutex mirror_mu_;
  bool bf16_ready_ BAFFLE_GUARDED_BY(mirror_mu_) = false;
  bool u8_ready_ BAFFLE_GUARDED_BY(mirror_mu_) = false;
  // bf16 mirror of the X pack (same panel layout) plus its exactly-
  // widened fp32 image: on AVX2 the bf16 arm is "bf16 storage, fp32
  // compute", and since bf16 -> f32 widening is exact the engine widens
  // the rounded operands ONCE and streams them through the fp32 layer
  // kernel — bit-identical to re-widening inside a bf16 kernel per
  // tile, without paying that conversion per panel x model.
  std::vector<std::uint16_t> xpack_bf16_;
  AlignedFloatVec xpack_bf16f_;
  // u8 mirror: per panel, (d_pad/4) x 16 x 4 bytes plus per-column
  // affine scale/offset.
  std::vector<std::uint8_t> xpack_u8_;
  AlignedFloatVec xscale_u8_;
  AlignedFloatVec xoffset_u8_;
};

}  // namespace baffle
