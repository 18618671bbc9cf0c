// Baseline-target GEMM variant, ISA dispatch and the public gemm_* entry
// points (ops.h). The AVX2 variant is the same body built by
// gemm_avx2.cpp.
#include "tensor/gemm.h"

#include <vector>

#include "common/check.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"

namespace gluefl {
namespace gemm_detail {

namespace {

constexpr Kernels kBaselineKernels = GemmBody<16>::table("baseline");

// Scratch floats any variant needs: the column-tail panels of run() in
// gemm_kernel.h, plus A^T and C^T for nt.
size_t workspace_floats(int m, int k, int n, bool nt) {
  const size_t tails = static_cast<size_t>(m + k + n) * kMaxTileCols;
  return tails + (nt ? static_cast<size_t>(m) * (k + n) : 0);
}

// Grow-only per-thread scratch: the engine trains from several threads.
float* workspace(size_t floats) {
  thread_local std::vector<float> ws;
  if (ws.size() < floats) ws.resize(floats);
  return ws.data();
}

}  // namespace

bool isa_supported(Isa isa) {
  if (isa == Isa::kBaseline) return true;
#if defined(GLUEFL_GEMM_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Kernels& kernels(Isa isa) {
  GLUEFL_CHECK_MSG(isa_supported(isa),
                   "GEMM variant not supported by this build/CPU");
#if defined(GLUEFL_GEMM_AVX2)
  if (isa == Isa::kAvx2) return kAvx2Kernels;
#endif
  return kBaselineKernels;
}

Isa active_isa() {
  static const Isa isa =
      isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

void gemm_nn(Isa isa, const float* a, const float* b, float* c, int m, int k,
             int n, bool accumulate) {
  kernels(isa).nn(a, b, c, m, k, n, accumulate,
                  workspace(workspace_floats(m, k, n, false)));
}

void gemm_nt(Isa isa, const float* a, const float* b, float* c, int m, int n,
             int k, bool accumulate) {
  kernels(isa).nt(a, b, c, m, n, k, accumulate,
                  workspace(workspace_floats(m, k, n, true)));
}

void gemm_tn(Isa isa, const float* a, const float* b, float* c, int m, int k,
             int n, bool accumulate) {
  kernels(isa).tn(a, b, c, m, k, n, accumulate,
                  workspace(workspace_floats(m, k, n, false)));
}

}  // namespace gemm_detail

void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  gemm_detail::gemm_nn(gemm_detail::active_isa(), a, b, c, m, k, n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, int m, int n, int k,
             bool accumulate) {
  gemm_detail::gemm_nt(gemm_detail::active_isa(), a, b, c, m, n, k, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  gemm_detail::gemm_tn(gemm_detail::active_isa(), a, b, c, m, k, n, accumulate);
}

}  // namespace gluefl
