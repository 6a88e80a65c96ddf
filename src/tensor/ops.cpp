#include "tensor/ops.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "util/contracts.hpp"
#include "tensor/simd.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/scratch_lease.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

namespace {
// Multiply-accumulate count above which a GEMM is split into row-block
// tasks on the global thread pool (and its time/flops reported to the
// metrics registry). Below it the pool dispatch costs more than it
// saves — the per-batch training shapes (32x64x10 and friends) all stay
// inline on the caller.
constexpr std::size_t kParallelMacs = std::size_t{1} << 20;

/// Runs fn(r0, r1) over row ranges covering [0, m): in parallel row
/// blocks on the global pool when the kernel is worth it, inline
/// otherwise. Blocks write disjoint output rows, so tasks never alias.
template <typename Fn>
void for_each_row_block(std::size_t m, std::size_t macs, const Fn& fn) {
  if (macs < kParallelMacs || m < 2) {
    fn(std::size_t{0}, m);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  const std::size_t max_tasks = std::max<std::size_t>(1, 4 * pool.size());
  const std::size_t row_block =
      std::max<std::size_t>(1, (m + max_tasks - 1) / max_tasks);
  const std::size_t blocks = (m + row_block - 1) / row_block;
  pool.parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t r0 = blk * row_block;
    fn(r0, std::min(m, r0 + row_block));
  });
}

/// RAII reporter for the large-kernel path: accumulates wall-clock and
/// flop counters so GFLOP/s is derivable from the metrics dump. No-op
/// (and no clock reads) for small kernels.
class GemmReport {
 public:
  GemmReport(std::size_t macs, bool enabled) : enabled_(enabled) {
    if (enabled_) {
      flops_ = 2 * macs;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~GemmReport() {
    if (!enabled_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    MetricsRegistry& registry = MetricsRegistry::global();
    registry.add_timer(metric::kGemmLarge,
                       std::chrono::duration<double>(elapsed).count());
    registry.add_counter(metric::kGemmLargeFlops, flops_);
  }

 private:
  bool enabled_;
  std::size_t flops_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Aliasing precondition of every GEMM kernel: the output may overlap
/// neither input (rows are zero-filled and accumulated in place).
[[maybe_unused]] bool disjoint(const float* a, std::size_t a_len,
                               const float* b, std::size_t b_len) {
  const auto a0 = reinterpret_cast<std::uintptr_t>(a);
  const auto b0 = reinterpret_cast<std::uintptr_t>(b);
  return a0 + a_len * sizeof(float) <= b0 ||
         b0 + b_len * sizeof(float) <= a0;
}

/// Panel-kernel arguments for out = A·B with A addressed through the
/// stride pair; B and the epilogue are bound by the caller.
kernels::PanelGemmArgs panel_args(const float* a, std::size_t a_row_stride,
                                  std::size_t a_p_stride, Matrix& out,
                                  std::size_t k) {
  kernels::PanelGemmArgs args;
  args.a = a;
  args.a_row_stride = a_row_stride;
  args.a_p_stride = a_p_stride;
  args.c = out.flat().data();
  args.ldc = out.cols();
  args.k = k;
  args.n = out.cols();
  return args;
}

/// Executor shared by the three transpose configurations: `args` is
/// complete, B included.
void run_panels(const kernels::KernelTable& kt,
                const kernels::PanelGemmArgs& args, std::size_t m,
                std::size_t macs) {
  for_each_row_block(m, macs, [&](std::size_t r0, std::size_t r1) {
    kt.gemm_panel_rows(args, r0, r1);
  });
}

/// Points `args` at B packed into panels.
void use_panels(kernels::PanelGemmArgs& args, const PackedB& bp) {
  BAFFLE_DCHECK(
      reinterpret_cast<std::uintptr_t>(bp.data()) % simd::kAlignment == 0,
      "packed panels must be cache-line aligned");
  args.b = bp.data();
  args.b_p_stride = kernels::kPanelCols;
  args.b_panel_stride = bp.k() * kernels::kPanelCols;
}

/// GEMM against a row-major B (args.k x args.n): read in place when the
/// kernel can, else packed first.
void run_panels_on(const kernels::KernelTable& kt,
                   kernels::PanelGemmArgs args, const Matrix& b,
                   std::size_t m, std::size_t macs) {
  if (kt.gemm_reads_b_in_place) {
    args.b = b.flat().data();
    args.b_p_stride = b.cols();
    args.b_panel_stride = kernels::kPanelCols;
    run_panels(kt, args, m, macs);
    return;
  }
  // Packing happens on the caller thread before any row-block fan-out;
  // the per-depth scratch is reused (and regrown monotonically).
  const ScratchLease<PackedB> scratch;
  pack_b_panels(b, *scratch);
  use_panels(args, *scratch);
  run_panels(kt, args, m, macs);
}

/// gemm_ab, with the bias(+ReLU) epilogue when `bias` is non-null.
void gemm_ab_impl(const Matrix& a, const Matrix& b, const float* bias,
                  bool relu, Matrix& out) {
  BAFFLE_CHECK(a.cols() == b.rows(), "gemm_ab: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
        "gemm_ab: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), a.size()),
                "GEMM output must not alias an input");
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), b.flat().data(), b.size()),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const GemmReport report(macs, macs >= kParallelMacs);
  kernels::PanelGemmArgs args = panel_args(
      a.flat().data(), /*a_row_stride=*/k, /*a_p_stride=*/1, out, k);
  args.bias = bias;
  args.relu = relu;
  run_panels_on(kernels::active_table(), args, b, m, macs);
}

}  // namespace

void pack_b_panels(const Matrix& b, PackedB& out) {
  constexpr std::size_t pc = kernels::kPanelCols;
  const std::size_t k = b.rows(), n = b.cols();
  const std::size_t panels = (n + pc - 1) / pc;
  out.data_.resize(panels * k * pc);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    float* panel = out.data_.data() + jp * k * pc;
    const std::size_t j0 = jp * pc;
    const std::size_t cols = std::min(pc, n - j0);
    for (std::size_t p = 0; p < k; ++p) {
      const float* src = b.row(p).data() + j0;
      float* dst = panel + p * pc;
      std::copy_n(src, cols, dst);
      std::fill_n(dst + cols, pc - cols, 0.0f);  // zero-padded tail
    }
  }
  out.k_ = k;
  out.n_ = n;
}

void pack_bt_panels(const Matrix& b, PackedB& out) {
  // Effective operand is bᵀ: panels hold columns of bᵀ, i.e. rows of b,
  // copied with the table's transpose; a tail panel's dead columns are
  // +0.
  constexpr std::size_t pc = kernels::kPanelCols;
  const std::size_t k = b.cols(), n = b.rows();
  const std::size_t panels = (n + pc - 1) / pc;
  out.data_.resize(panels * k * pc);
  const kernels::KernelTable& kt = kernels::active_table();
  const auto pack_panel = [&](std::size_t jp) {
    const std::size_t j0 = jp * pc;
    const std::size_t rows = std::min(pc, n - j0);
    float* panel = out.data_.data() + jp * k * pc;
    kt.transpose(b.flat().data() + j0 * k, rows, k, k, panel, pc);
    if (rows == pc) return;
    for (std::size_t p = 0; p < k; ++p) {
      std::fill_n(panel + p * pc + rows, pc - rows, 0.0f);
    }
  };
  // Validation-sized packs (MultiModelEval::bind over a whole holdout)
  // fan the panels out across the pool — each panel is a disjoint write
  // with identical per-element copies, so the pack is byte-identical to
  // the serial loop for any thread count. Training-sized packs (a batch
  // inside gemm_abt) stay inline: the gather is cheaper than a task.
  constexpr std::size_t kParallelPackElems = std::size_t{1} << 18;
  ThreadPool& pool = ThreadPool::global();
  if (panels >= 2 && panels * k * pc >= kParallelPackElems &&
      pool.size() > 1) {
    pool.parallel_for(panels, pack_panel);
  } else {
    for (std::size_t jp = 0; jp < panels; ++jp) pack_panel(jp);
  }
  out.k_ = k;
  out.n_ = n;
}

void gemm_ab(const Matrix& a, const Matrix& b, Matrix& out) {
  gemm_ab_impl(a, b, /*bias=*/nullptr, /*relu=*/false, out);
}

void gemm_ab_bias(const Matrix& a, const Matrix& b,
                  std::span<const float> bias, bool relu, Matrix& out) {
  BAFFLE_CHECK(bias.size() == b.cols(), "gemm_ab_bias: bias length mismatch");
  gemm_ab_impl(a, b, bias.data(), relu, out);
}

void gemm_atb(const Matrix& a, const Matrix& b, Matrix& out) {
  BAFFLE_CHECK(a.rows() == b.rows(), "gemm_atb: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
        "gemm_atb: output shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), a.size()),
                "GEMM output must not alias an input");
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), b.flat().data(), b.size()),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const GemmReport report(macs, macs >= kParallelMacs);
  // A enters transposed: output row i reads column i of a.
  run_panels_on(kernels::active_table(),
                panel_args(a.flat().data(), /*a_row_stride=*/1,
                           /*a_p_stride=*/m, out, k),
                b, m, macs);
}

void gemm_abt(const Matrix& a, const Matrix& b, Matrix& out) {
  BAFFLE_CHECK(a.cols() == b.cols(), "gemm_abt: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.rows() && out.cols() == b.rows(),
        "gemm_abt: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), a.size()),
                "GEMM output must not alias an input");
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), b.flat().data(), b.size()),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const GemmReport report(macs, macs >= kParallelMacs);
  // Every arm reads Bᵀ packed: no tile reads a transposed B in place.
  const ScratchLease<PackedB> scratch;
  pack_bt_panels(b, *scratch);
  kernels::PanelGemmArgs args = panel_args(
      a.flat().data(), /*a_row_stride=*/k, /*a_p_stride=*/1, out, k);
  use_panels(args, *scratch);
  run_panels(kernels::active_table(), args, m, macs);
}

void transpose(const Matrix& src, Matrix& dst) {
  dst.resize(src.cols(), src.rows());
  if (src.empty()) return;
  BAFFLE_DCHECK(disjoint(dst.flat().data(), dst.size(), src.flat().data(),
                         src.size()),
                "transpose output must not alias its input");
  kernels::active_table().transpose(src.flat().data(), src.rows(),
                                    src.cols(), src.cols(),
                                    dst.flat().data(), dst.cols());
}

void col_sum(const Matrix& m, std::span<float> out) {
  BAFFLE_CHECK(out.size() == m.cols(), "col_sum: output length mismatch");
  kernels::active_table().col_sum(m.flat().data(), m.rows(), m.cols(),
                                  out.data());
}

}  // namespace baffle
