// exp_sweep — every float through the dispatched exp against libm.
//
// Runs all 2^32 float bit patterns through the active kernel table's
// exp_f32 and compares each result with std::exp bit for bit, in chunks
// split across the global thread pool (BAFFLE_THREADS sizes it), then
// prints the mismatch count. Only the AVX-512 copy of libm's expf
// (KernelTable::libm_exp_copy, tensor/kernels_simd.cpp) is something
// other than std::exp itself; its dispatch-time probe samples the fast
// path, and this is the exhaustive check behind it.
//
// Exits 0 when every pattern matches, 1 on any mismatch (the first few
// are printed), and 77 when the active table has no copy to check: no
// AVX-512F, BAFFLE_FORCE_SCALAR set, or the probe turned the copy off.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <vector>

#include "tensor/kernels.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
constexpr std::uint64_t kChunk = std::uint64_t{1} << 22;  // 1024 tasks
constexpr std::size_t kBlock = 4096;

int sweep() {
  const baffle::kernels::KernelTable& t = baffle::kernels::active_table();
  if (!t.libm_exp_copy) {
    std::printf(
        "exp sweep: SKIP (the dispatched %s table runs std::exp itself: no "
        "AVX-512F, BAFFLE_FORCE_SCALAR set, or the dispatch probe found a "
        "different libm expf)\n",
        t.gemm_width);
    return 77;
  }
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{kPatterns};
  baffle::ThreadPool& pool = baffle::ThreadPool::global();
  pool.parallel_for(kPatterns / kChunk, [&](std::size_t chunk) {
    std::vector<float> x(kBlock), got(kBlock);
    std::uint64_t bad = 0, lowest = kPatterns;
    for (std::uint64_t b0 = chunk * kChunk; b0 < (chunk + 1) * kChunk;
         b0 += kBlock) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        const auto bits = static_cast<std::uint32_t>(b0 + i);
        std::memcpy(&x[i], &bits, sizeof(bits));
      }
      t.exp_f32(got.data(), x.data(), kBlock);
      for (std::size_t i = 0; i < kBlock; ++i) {
        const float want = std::exp(x[i]);
        if (std::memcmp(&want, &got[i], sizeof(want)) != 0) {
          ++bad;
          lowest = std::min<std::uint64_t>(lowest, b0 + i);
        }
      }
    }
    mismatches += bad;
    std::uint64_t seen = first_bad.load();
    while (lowest < seen && !first_bad.compare_exchange_weak(seen, lowest)) {
    }
  });
  std::printf("exp sweep: %llu mismatches over %llu float patterns (%s exp, "
              "%zu pool threads)\n",
              static_cast<unsigned long long>(mismatches.load()),
              static_cast<unsigned long long>(kPatterns), t.gemm_width,
              pool.size());
  if (mismatches.load() == 0) return 0;
  const auto bits = static_cast<std::uint32_t>(first_bad.load());
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  float got;
  t.exp_f32(&got, &x, 1);
  std::printf("exp sweep: first mismatch at 0x%08x (%a): copy %a, std::exp %a\n",
              bits, static_cast<double>(x), static_cast<double>(got),
              static_cast<double>(std::exp(x)));
  return 1;
}

}  // namespace

int main() {
  try {
    return sweep();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exp_sweep: %s\n", e.what());
    return 1;
  }
}
