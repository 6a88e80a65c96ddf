#pragma once
// Internal dispatch table between the scalar and vector kernel arms.
//
// Everything here operates on raw pointers + strides so the same entry
// points can be implemented twice: tensor/kernels_scalar.cpp keeps
// plain loops without FMA (the ground truth the parity tests compare
// against), tensor/kernels_simd.cpp provides the AVX2/FMA (and,
// chosen by CPUID, AVX-512F) microkernels and vectorized primitives.
// tensor/ops.cpp and tensor/primitives.cpp do the shape checking,
// packing and thread-pool splitting, then call through active_table().
//
// An entry earns its two arms by running on every round of a workload:
// training, aggregation and masking, or validation — or on every
// set-up, as Rng's engine and Gaussian draws do. A loop only the
// robust-aggregation baselines or the report tables reach stays one
// plain loop outside the table (tensor/primitives.cpp, util/stats.cpp).

#include <cstddef>
#include <cstdint>

namespace baffle::kernels {

/// Columns per packed-B panel: two 8-float vectors. Panels are stored
/// contiguously (k rows x 16 floats each, 64-byte aligned, tail panel
/// zero-padded), so one panel row is exactly one cache line.
inline constexpr std::size_t kPanelCols = 16;

/// Row-range GEMM against B in 16-column panels, with an optional
/// bias(+ReLU) epilogue. A is addressed as a[i * a_row_stride + p *
/// a_p_stride] for output row i and inner index p, which expresses both
/// the normal (ab/abt) and transposed (atb) A operand without a separate
/// kernel. Row p of panel jp (columns [16·jp, 16·jp + 16)) starts at
/// b + jp * b_panel_stride + p * b_p_stride, which covers two layouts:
///  - packed panels (pack_b_panels / pack_bt_panels): b_p_stride =
///    kPanelCols, b_panel_stride = k * kPanelCols, 64-byte aligned,
///    zero-padded tail. Every arm reads these.
///  - B in place, row-major with row stride ldb: b_p_stride = ldb,
///    b_panel_stride = kPanelCols. Only arms whose table sets
///    gemm_reads_b_in_place read it.
/// Every output element is the fold over p in order from +0, one
/// multiply-add per step, then — when `bias` is set — one bias add, then
/// — when `relu` is set — keep-unless-negative.
struct PanelGemmArgs {
  const float* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_p_stride = 0;
  const float* b = nullptr;
  std::size_t b_p_stride = 0;
  std::size_t b_panel_stride = 0;
  const float* bias = nullptr;  // nullable; n entries, one add post-sum
  bool relu = false;
  float* c = nullptr;
  std::size_t ldc = 0;
  std::size_t k = 0;
  std::size_t n = 0;
};

// ---- Batched multi-model evaluation kernels (DESIGN.md §14) ----
//
// The validator's forward passes run over the evaluation set packed
// ONCE as Xᵀ panels (pack_bt_panels layout: k rows x kPanelCols sample
// columns, 64-byte aligned, zero-padded tail). Per model and per group
// of consecutive panels, eval_layer_f32 computes one dense layer
// transposed — out = Wᵀ·in — with the bias add (and optionally ReLU)
// fused into the register epilogue and the output written in the same
// packed layout, so layers chain group-by-group without leaving the
// cache.

/// Fused transposed layer over `panels` consecutive packed fp32 panels.
/// Input panel q starts at in + q·k·kPanelCols and output panel q at
/// out + q·n_out·kPanelCols, so one layer's output group is the next
/// layer's input group. A = Wᵀ is addressed a[i * a_row_stride + p *
/// a_p_stride] like PanelGemmArgs (a_row_stride=1, a_p_stride=n_out
/// reads a row-major W in place). Every output lane is the fold over p
/// from +0, one multiply-add per step, then one bias add, then — with
/// `relu` — keep-unless-negative; a P-panel call equals P one-panel
/// calls byte for byte on every arm.
struct EvalLayerArgs {
  const float* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_p_stride = 0;
  const float* bias = nullptr;  // n_out entries, one add post-sum
  const float* in = nullptr;    // `panels` packed panels, k x kPanelCols
  float* out = nullptr;         // `panels` packed panels, n_out x kPanelCols
  std::size_t k = 0;
  std::size_t n_out = 0;
  bool relu = false;
  std::size_t panels = 1;
};

/// Column argmax over a packed panel with std::max_element's first-max
/// tie-break, plus (when `margins` is non-null) the top-2
/// margin per column, which the parity tests compare byte for byte.
struct ArgmaxMarginArgs {
  const float* in = nullptr;     // packed panel, n_rows x kPanelCols
  std::size_t n_rows = 0;        // >= 1
  std::size_t cols = 0;          // live columns <= kPanelCols
  std::size_t* preds = nullptr;  // cols entries
  float* margins = nullptr;      // nullable; cols entries, +inf if n_rows==1
};

// ---- MT19937-64 (util/rng.hpp) ----
//
// std::mt19937_64's parameters, so Rng's engine produces its words: the
// state size n, the middle word m, the twist matrix a, the upper mask
// of r = 31 bits kept from a word, and the tempering masks (Rng::temper).
inline constexpr std::size_t kMtWords = 312;
inline constexpr std::size_t kMtMiddle = 156;
inline constexpr std::uint64_t kMtMatrixA = 0xb5026f5aa96619e9ULL;
inline constexpr std::uint64_t kMtUpperMask = ~std::uint64_t{0} << 31;
inline constexpr std::uint64_t kMtTemperD = 0x5555555555555555ULL;
inline constexpr std::uint64_t kMtTemperB = 0x71d67fffeda60000ULL;
inline constexpr std::uint64_t kMtTemperC = 0xfff7eee000000000ULL;

/// One step of Rng::normals: the polar method of libstdc++'s
/// normal_distribution over raw (untempered) MT19937-64 state words.
/// Pair i reads words[2i] then words[2i + 1]; each word is tempered and
/// becomes u = min(double(word) · 2^-64, 1 - 2^-53) (generate_canonical
/// with one word per value), then v = 2u - 1. With x and y the pair's
/// two values, r2 = x·x + y·y — each product rounded before the add —
/// and the pair is accepted when 0 < r2 <= 1. The y and r2 of accepted
/// pairs are written in pair order until `want` are accepted or the
/// pairs run out.
struct PolarPairsArgs {
  const std::uint64_t* words = nullptr;  // 2 * pairs raw state words
  std::size_t pairs = 0;
  std::size_t want = 0;   // >= 1
  double* y = nullptr;    // want entries
  double* r2 = nullptr;   // want entries
};

struct KernelTable {
  const char* name;
  /// Register width of gemm_panel_rows: "scalar", "avx2" (ymm 6x16
  /// tile) or "avx512f" (zmm tiles). micro_core and tools/check.sh print
  /// it, so a log shows which GEMM tile ran.
  const char* gemm_width;
  /// True when gemm_panel_rows reads a row-major B in place (gemm_ab,
  /// gemm_atb); false when it reads packed panels only.
  bool gemm_reads_b_in_place;
  /// True when exp_f32 and the two softmax entries run the AVX-512 copy
  /// of libm's expf. Set only after a dispatch-time probe found the copy
  /// bit-identical to the std::exp the process runs; otherwise every
  /// exp is a std::exp call.
  bool libm_exp_copy;

  // Every GEMM entry point (gemm_ab, gemm_ab_bias, gemm_atb, gemm_abt)
  // runs this kernel over row blocks of the output.
  void (*gemm_panel_rows)(const PanelGemmArgs&, std::size_t r0,
                          std::size_t r1);
  // dst[c * ldd + r] = src[r * lds + c] for r < rows and c < cols: the
  // rows x cols block at src becomes the cols x rows block at dst, and
  // nothing else at dst is written. pack_bt_panels runs it with
  // ldd = kPanelCols, the SGD step's class-major output layer on its
  // activations and weights. A copy, so every arm gives the same bytes,
  // NaN payloads included.
  void (*transpose)(const float* src, std::size_t rows, std::size_t cols,
                    std::size_t lds, float* dst, std::size_t ldd);

  // Flat-vector primitives. All length arguments are element counts.
  void (*axpy)(float alpha, const float*, float*, std::size_t);
  void (*scale)(float*, float alpha, std::size_t);
  float (*max_value)(const float*, std::size_t);  // n > 0
  void (*relu_backward)(const float* activated, float* grad, std::size_t);
  void (*add_u64)(std::uint64_t* acc, const std::uint64_t*, std::size_t);
  // Secure-aggregation masking (fl/secure_agg.hpp). One pair's mask is
  // the counter-mode keystream m_k = Rng::split_mix(seed + k *
  // Rng::kGoldenGamma); this adds it to `plus` and subtracts it from
  // `minus` in Z_2^64, each side skipped when its pointer is null.
  void (*pair_keystream_u64)(std::uint64_t* plus, std::uint64_t* minus,
                             std::uint64_t seed, std::size_t n);
  // out[i] = round(x[i] * 2^frac_bits), halves away from zero, as a
  // two's-complement word, for every i below the returned index: the
  // first i with |x[i] * 2^frac_bits| >= 2^63 or NaN, or n when there
  // is none. Words from that index on are left as they were.
  std::size_t (*encode_fixed_u64)(const float* x, unsigned frac_bits,
                                  std::uint64_t* out, std::size_t n);

  // Batched multi-model evaluation: fused transposed layers and the
  // panel argmax.
  void (*eval_layer_f32)(const EvalLayerArgs&);
  void (*argmax_margin_panel)(const ArgmaxMarginArgs&);

  // SGD step (DESIGN.md §10). out[i] = std::exp(x[i]), bit for bit.
  void (*exp_f32)(float* out, const float* x, std::size_t n);
  // Fused row softmax + cross-entropy gradient over a row-major rows x
  // cols block, one row per sample: x holds the logits on entry and
  // dL/dlogits of the batch's mean loss on exit. labels[r] is in
  // [0, cols).
  void (*softmax_xent_rows)(float* x, const int* labels, std::size_t rows,
                            std::size_t cols);
  // The same gradient class-major, for classes <= kPanelCols: x is the
  // classes x batch block (row stride batch), one column per sample,
  // holding each logit without its bias. Each logit is x + bias[c], one
  // add; then every sample runs the row loop's arithmetic, and x holds
  // dL/dlogitsᵀ. bias_grad[c] is row c of that gradient folded in
  // sample order from +0 (what col_sum gives the row-major gradient).
  void (*softmax_xent_class_major)(float* x, const float* bias,
                                   const int* labels, std::size_t classes,
                                   std::size_t batch, float* bias_grad);
  // out[c] = sum of column c of the row-major rows x cols block m, folded
  // over the rows in order from +0. out must not overlap m.
  void (*col_sum)(const float* m, std::size_t rows, std::size_t cols,
                  float* out);
  // w[i] += round(−lr · g[i]): the product rounds before its add, never
  // one FMA, so every arm gives the same bytes.
  void (*sgd_update)(float* w, const float* g, float lr, std::size_t n);

  // Rng's engine (util/rng.hpp). mt_regenerate runs std::mt19937_64's
  // twist over the kMtWords state words in place. polar_pairs returns
  // the number of accepted pairs written and sets *pairs_read to the
  // pairs consumed: up to and including the last accepted one when
  // `want` were accepted, else all of them.
  void (*mt_regenerate)(std::uint64_t* state);
  std::size_t (*polar_pairs)(const PolarPairsArgs&, std::size_t* pairs_read);
};

/// softmax_xent_rows as one loop over the rows, with the row max taken
/// by `max_value`: the scalar arm's entry, and the vector arm's with its
/// own max_value (the zmm entry falls back to it for a batch holding a
/// NaN). Per row: max, then exp and sum in column order, divide by the
/// sum, divide by the batch, subtract 1/batch at the label.
void softmax_xent_row_loop(float* x, const int* labels, std::size_t rows,
                           std::size_t cols,
                           float (*max_value)(const float*, std::size_t));

/// softmax_xent_class_major for samples [i0, i1) of the batch: each
/// sample's column plus the bias, staged as a row, runs the row loop's
/// arithmetic, and bias_grad gains the gradients in sample order (the
/// caller zeroes it before sample 0). With the scalar max_value, the
/// scalar and ymm tables' entry; the zmm entry runs it on a block
/// holding a NaN.
void softmax_xent_class_major_loop(
    float* x, const float* bias, const int* labels, std::size_t classes,
    std::size_t batch, std::size_t i0, std::size_t i1, float* bias_grad,
    float (*max_value)(const float*, std::size_t));

/// Always available; no FMA anywhere, so each product rounds before its
/// add.
const KernelTable& scalar_table();
/// AVX2/FMA arm — with its AVX-512F entries where the CPU has
/// AVX-512F — or nullptr when not compiled in / not supported by the
/// running CPU.
const KernelTable* vector_table();
/// The arm selected by simd::active_isa() (env + CPUID + force_isa).
const KernelTable& active_table();

/// Test-only: the vector arm as a CPU without AVX-512F builds it (every
/// AVX-512F entry replaced by its AVX2 twin), or nullptr when the vector
/// arm is unavailable. SimdParity pins it to compare the two register
/// widths byte for byte on one machine.
const KernelTable* avx2_table_for_testing();
/// Test-only: makes `t` the active table until simd::force_isa() or
/// simd::reset_isa().
void pin_table_for_testing(const KernelTable& t);

}  // namespace baffle::kernels
