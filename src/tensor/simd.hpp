#pragma once
// Fixed-width SIMD vector layer with runtime ISA dispatch.
//
// The numeric kernels come in two arms:
//   - a scalar arm (plain loops, always compiled) that preserves the
//     pre-SIMD arithmetic exactly, and
//   - a vector arm written against the 8-wide float / 4-wide u64
//     types below (GCC/Clang vector extensions), compiled with
//     -mavx2 -mfma when the toolchain supports it.
// Which arm runs is decided once per process: the vector arm is used
// when it was compiled in and the CPU reports AVX2+FMA, unless the
// BAFFLE_FORCE_SCALAR environment variable is set (any value other
// than "0"), which pins the scalar arm for testing. Tests and benches
// can also flip arms programmatically via force_isa()/reset_isa().
//
// This header only defines the vector types, a few always-inline lane
// helpers, and the dispatch API; the kernels themselves live in
// tensor/kernels_{scalar,simd}.cpp behind the table in
// tensor/kernels.hpp.

#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define BAFFLE_SIMD_VEC_EXT 1
#define BAFFLE_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define BAFFLE_SIMD_VEC_EXT 0
#define BAFFLE_ALWAYS_INLINE inline
#endif

namespace baffle::simd {

/// Lanes per float vector (8 x f32 = 256 bits).
inline constexpr std::size_t kFloatLanes = 8;
/// Lanes per 64-bit integer vector (4 x u64 = 256 bits).
inline constexpr std::size_t kU64Lanes = 4;
/// Alignment of Matrix storage and packed GEMM panels: a full cache
/// line, so an aligned 256-bit load can never straddle one.
inline constexpr std::size_t kAlignment = 64;

// The vector types and lane helpers are only visible to TUs compiled
// with AVX2 codegen (in practice: tensor/kernels_simd.cpp). Elsewhere
// merely returning a 256-bit vector would draw -Wpsabi ABI warnings,
// and no other TU may touch these types anyway — the vector arm is
// reached through the dispatch table alone.
#if BAFFLE_SIMD_VEC_EXT && defined(__AVX2__) && defined(__FMA__)

typedef float f32x8 __attribute__((vector_size(32)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));
typedef std::uint64_t u64x4 __attribute__((vector_size(32)));

namespace detail {
// Unaligned-access twins: dereferencing a pointer cast to the plain
// vector types asserts 32-byte alignment, which Matrix rows and
// parameter vectors do not guarantee. These carry the element
// alignment instead, so loads/stores through them are emitted as
// unaligned instructions.
typedef float f32x8_u __attribute__((vector_size(32), aligned(4)));
typedef std::uint64_t u64x4_u __attribute__((vector_size(32), aligned(8)));
}  // namespace detail

BAFFLE_ALWAYS_INLINE f32x8 loadu8(const float* p) {
  return *reinterpret_cast<const detail::f32x8_u*>(p);
}
BAFFLE_ALWAYS_INLINE void storeu8(float* p, f32x8 v) {
  *reinterpret_cast<detail::f32x8_u*>(p) = v;
}
/// Aligned load: p must be 32-byte aligned (packed panels are).
BAFFLE_ALWAYS_INLINE f32x8 loada8(const float* p) {
  return *reinterpret_cast<const f32x8*>(p);
}
BAFFLE_ALWAYS_INLINE f32x8 splat8(float x) {
  return f32x8{x, x, x, x, x, x, x, x};
}
BAFFLE_ALWAYS_INLINE u64x4 loadu4u(const std::uint64_t* p) {
  return *reinterpret_cast<const detail::u64x4_u*>(p);
}
BAFFLE_ALWAYS_INLINE void storeu4u(std::uint64_t* p, u64x4 v) {
  *reinterpret_cast<detail::u64x4_u*>(p) = v;
}

/// Lanewise max via the sign of the comparison mask (portable across
/// GCC/Clang without relying on vector ternaries). NaN lanes in `a`
/// select `b`, matching `a > b ? a : b`.
BAFFLE_ALWAYS_INLINE f32x8 vmax8(f32x8 a, f32x8 b) {
  const i32x8 m = a > b;  // all-ones where a > b
  return __builtin_bit_cast(
      f32x8, (__builtin_bit_cast(i32x8, a) & m) |
                 (__builtin_bit_cast(i32x8, b) & ~m));
}

/// max(x, 0) with the exact semantics of `if (x < 0) x = 0`: negative
/// lanes zeroed, NaN/+0/-0 pass through like the scalar code.
BAFFLE_ALWAYS_INLINE f32x8 vrelu8(f32x8 x) {
  const i32x8 keep = ~(x < f32x8{});  // all-ones unless x < 0
  return __builtin_bit_cast(f32x8, __builtin_bit_cast(i32x8, x) & keep);
}

#endif  // BAFFLE_SIMD_VEC_EXT && __AVX2__ && __FMA__

/// The two dispatch arms. kVector is available only when the vector
/// kernels were compiled in (GNU-compatible compiler, x86-64, AVX2+FMA
/// flags accepted) and the CPU supports them at runtime.
enum class Isa { kScalar, kVector };

/// Arm currently selected for all dispatched kernels.
Isa active_isa();
/// True if `isa` can be selected on this build/CPU.
bool isa_available(Isa isa);
/// Pin an arm (tests/benches). Returns false if unavailable.
bool force_isa(Isa isa);
/// Drop any force_isa() pin and re-read BAFFLE_FORCE_SCALAR + CPUID.
void reset_isa();
/// True if the BAFFLE_FORCE_SCALAR environment variable pins the
/// scalar arm (parity tests skip their vector side under it).
bool scalar_forced_by_env();
const char* isa_name(Isa isa);
/// Register width of the GEMM tile the active arm runs: "scalar",
/// "avx2" (ymm) or "avx512f" (zmm, chosen by CPUID within the vector
/// arm). micro_core and tools/check.sh print it.
const char* gemm_width();

}  // namespace baffle::simd
