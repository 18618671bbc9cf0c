// ISA variants of the GEMM kernels behind gemm_nn / gemm_nt / gemm_tn
// (ops.h, DESIGN.md §7b). Internal to src/tensor/ and its tests.
//
// One kernel body (gemm_kernel.h) is compiled twice: for the baseline
// target by gemm.cpp, and with -mavx2 (no FMA) by gemm_avx2.cpp on x86-64
// builds. Both obey the numeric contract in ops.h, so they are
// bit-identical to each other and to the plain loops they replaced
// (tests/test_tensor.cpp). The public functions use active_isa(), picked
// once per process by CPUID; tests reach every variant through the
// Isa-taking overloads below.
#pragma once

namespace gluefl::gemm_detail {

enum class Isa { kBaseline = 0, kAvx2 = 1 };

/// Widest register tile of any variant, in C columns (workspace sizing).
constexpr int kMaxTileCols = 16;

/// One variant's kernels. `ws` is caller-owned scratch (see
/// workspace_floats in gemm.cpp); the variants allocate nothing.
struct Kernels {
  const char* name;
  int tile_rows;  // rows of C per register tile
  int tile_cols;  // columns of C per register tile
  void (*nn)(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate, float* ws);
  void (*nt)(const float* a, const float* b, float* c, int m, int n, int k,
             bool accumulate, float* ws);
  void (*tn)(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate, float* ws);
};

/// True when `isa` is compiled into this build and the CPU runs it.
bool isa_supported(Isa isa);

/// The kernel table of `isa`; CheckError when unsupported.
const Kernels& kernels(Isa isa);

/// The variant the public gemm_* use: AVX2 when supported, else baseline.
Isa active_isa();

/// The public GEMMs on a named variant, with a per-thread workspace.
void gemm_nn(Isa isa, const float* a, const float* b, float* c, int m, int k,
             int n, bool accumulate);
void gemm_nt(Isa isa, const float* a, const float* b, float* c, int m, int n,
             int k, bool accumulate);
void gemm_tn(Isa isa, const float* a, const float* b, float* c, int m, int k,
             int n, bool accumulate);

// Defined by gemm_avx2.cpp; referenced only when GLUEFL_GEMM_AVX2 says
// that TU is linked in.
extern const Kernels kAvx2Kernels;

}  // namespace gluefl::gemm_detail
