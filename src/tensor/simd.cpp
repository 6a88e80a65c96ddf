// Runtime ISA dispatch: decides once which kernel arm the process
// uses, with test hooks to pin either arm.

#include "tensor/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "tensor/kernels.hpp"

namespace baffle {
namespace simd {
namespace {

bool env_forces_scalar() {
  const char* v = std::getenv("BAFFLE_FORCE_SCALAR");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

const kernels::KernelTable* default_table() {
  if (env_forces_scalar()) return &kernels::scalar_table();
  if (const kernels::KernelTable* vec = kernels::vector_table()) return vec;
  return &kernels::scalar_table();
}

// The selected arm. Pointer swap is atomic so force_isa() from a test
// racing a concurrent kernel call is merely a stale read, not a tear.
std::atomic<const kernels::KernelTable*> g_table{nullptr};

const kernels::KernelTable* table() {
  const kernels::KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = default_table();
    g_table.store(t, std::memory_order_release);
  }
  return t;
}

}  // namespace

Isa active_isa() {
  return table() == &kernels::scalar_table() ? Isa::kScalar : Isa::kVector;
}

bool isa_available(Isa isa) {
  if (isa == Isa::kScalar) return true;
  return kernels::vector_table() != nullptr;
}

bool force_isa(Isa isa) {
  if (isa == Isa::kScalar) {
    g_table.store(&kernels::scalar_table(), std::memory_order_release);
    return true;
  }
  const kernels::KernelTable* vec = kernels::vector_table();
  if (vec == nullptr) return false;
  g_table.store(vec, std::memory_order_release);
  return true;
}

void reset_isa() {
  g_table.store(default_table(), std::memory_order_release);
}

bool scalar_forced_by_env() { return env_forces_scalar(); }

const char* isa_name(Isa isa) {
  return isa == Isa::kScalar ? "scalar" : "avx2";
}

const char* gemm_width() { return table()->gemm_width; }

}  // namespace simd

namespace kernels {

const KernelTable& active_table() { return *simd::table(); }

void pin_table_for_testing(const KernelTable& t) {
  simd::g_table.store(&t, std::memory_order_release);
}

}  // namespace kernels
}  // namespace baffle
