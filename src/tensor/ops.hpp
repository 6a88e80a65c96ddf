#pragma once
// Numeric kernels on Matrix and flat float spans.
//
// GEMM comes in the three transpose configurations backprop needs:
//   forward:   Y  = X  W      -> gemm_ab
//   dW:        dW = Xᵀ dY     -> gemm_atb
//   dX:        dX = dY Wᵀ     -> gemm_abt
// Each entry point runs the dispatched arm's panel kernel (see
// tensor/simd.hpp) over B in 16-column panels: the scalar loop and the
// AVX-512 FMA tile read B in place (KernelTable::gemm_reads_b_in_place),
// the AVX2 FMA tile reads it packed into 64-byte-aligned panels
// (scratch leased per thread and nesting depth, reused across calls),
// and gemm_abt always packs its transpose. The multiply is split over row blocks on the
// global thread pool once it is large enough to amortize the dispatch;
// small multiplies (the per-batch training shapes) run inline on the
// caller. NaN/Inf inputs
// propagate to the output — a diverged model must not be masked by a
// sparsity shortcut.
//
// The flat-vector primitives (axpy/norms/...) live in
// tensor/primitives.hpp, included here so existing callers keep
// compiling unchanged.

#include <span>

#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"
#include "tensor/primitives.hpp"

namespace baffle {

/// B operand packed into contiguous 16-column panels for the GEMM
/// kernels (layout described in tensor/kernels.hpp).
class PackedB {
 public:
  bool empty() const { return data_.empty(); }
  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }
  const float* data() const { return data_.data(); }

 private:
  friend void pack_b_panels(const Matrix& b, PackedB& out);
  friend void pack_bt_panels(const Matrix& b, PackedB& out);

  AlignedFloatVec data_;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
};

/// Packs B (k x n, natural layout) into panels.
void pack_b_panels(const Matrix& b, PackedB& out);

/// Packs Bᵀ for gemm_abt: b is (n, k) and the panels hold its columns.
void pack_bt_panels(const Matrix& b, PackedB& out);

/// out = a * b. Shapes: (m,k) x (k,n) -> (m,n).
void gemm_ab(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * b + bias on every row, then ReLU (negatives to 0) when
/// `relu` — a dense layer's forward pass. Bias length = b.cols(). The
/// bias add and ReLU run in the GEMM kernel's epilogue; every element
/// equals gemm_ab's element, then one bias add, then
/// keep-unless-negative (NaN and -0 pass).
void gemm_ab_bias(const Matrix& a, const Matrix& b,
                  std::span<const float> bias, bool relu, Matrix& out);

/// out = aᵀ * b. Shapes: (k,m) x (k,n) -> (m,n).
void gemm_atb(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * bᵀ. Shapes: (m,k) x (n,k) -> (m,n).
void gemm_abt(const Matrix& a, const Matrix& b, Matrix& out);

/// dst = srcᵀ (dst's storage reused via resize). A copy: the same bytes
/// on every arm.
void transpose(const Matrix& src, Matrix& dst);

/// Column-wise sum of m into out (length = m.cols()).
void col_sum(const Matrix& m, std::span<float> out);

}  // namespace baffle
