#include "nn/compression.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/serialization.hpp"

namespace baffle {

namespace {
constexpr std::uint32_t kMagic = 0xBAFFC0DE;

std::vector<std::size_t> topk_indices(const ParamVec& params,
                                      std::size_t k) {
  // Precompute |params| in one sweep; fabs is exact, so the selection
  // is identical to comparing std::abs on the fly.
  std::vector<float> mags(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    mags[i] = std::fabs(params[i]);
  }
  std::vector<std::size_t> idx(params.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                   idx.end(), [&](std::size_t a, std::size_t b) {
                     return mags[a] > mags[b];
                   });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}
}  // namespace

CompressedModel compress_topk(const ParamVec& params, double keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("compress_topk: keep_fraction out of (0,1]");
  }
  if (params.empty()) {
    throw std::invalid_argument("compress_topk: empty parameters");
  }
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(keep_fraction *
                                  static_cast<double>(params.size())));
  const auto idx = topk_indices(params, std::min(k, params.size()));

  float lo = params[idx.front()], hi = lo;
  for (std::size_t i : idx) {
    lo = std::min(lo, params[i]);
    hi = std::max(hi, params[i]);
  }
  const float range = hi - lo;

  ByteWriter w;
  w.u32(kMagic);
  w.u64(params.size());
  w.u64(idx.size());
  w.f32(lo);
  w.f32(hi);
  // Delta-encoded indices as u32 (parameter counts are < 2^32).
  std::size_t prev = 0;
  for (std::size_t i : idx) {
    w.u32(static_cast<std::uint32_t>(i - prev));
    prev = i;
  }
  for (std::size_t i : idx) {
    const float normalized =
        range > 0.0f ? (params[i] - lo) / range : 0.0f;
    w.u8(static_cast<std::uint8_t>(
        std::lround(normalized * 255.0f)));
  }
  CompressedModel out;
  out.bytes = w.take();
  out.original_params = params.size();
  return out;
}

ParamVec decompress_topk(const CompressedModel& compressed) {
  ByteReader r(compressed.bytes);
  if (r.u32() != kMagic) {
    throw std::runtime_error("decompress_topk: bad magic");
  }
  const std::uint64_t total = r.u64();
  const std::uint64_t kept = r.u64();
  if (kept > total) {
    throw std::runtime_error("decompress_topk: kept > total");
  }
  const float lo = r.f32();
  const float hi = r.f32();
  const float range = hi - lo;
  std::vector<std::size_t> idx(kept);
  std::size_t prev = 0;
  for (auto& i : idx) {
    prev += r.u32();
    if (prev >= total) {
      throw std::runtime_error("decompress_topk: index out of range");
    }
    i = prev;
  }
  ParamVec out(total, 0.0f);
  for (std::size_t i : idx) {
    const float normalized = static_cast<float>(r.u8()) / 255.0f;
    out[i] = lo + normalized * range;
  }
  if (!r.done()) {
    throw std::runtime_error("decompress_topk: trailing bytes");
  }
  return out;
}

float quantization_error_bound(const ParamVec& params,
                               double keep_fraction) {
  const CompressedModel compressed = compress_topk(params, keep_fraction);
  const ParamVec restored = decompress_topk(compressed);
  float worst = 0.0f;
  // Only entries that were kept (non-zero in the restored vector, or
  // genuinely zero in the original).
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (restored[i] != 0.0f || params[i] == 0.0f) {
      worst = std::max(worst, std::abs(restored[i] - params[i]));
    }
  }
  return worst;
}

}  // namespace baffle
