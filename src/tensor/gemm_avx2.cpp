// AVX2 GEMM variant: the gemm_kernel.h body with 8-lane vectors. This file
// alone is compiled with -mavx2 (CMake per-file flag; -mavx2 does not
// enable FMA), and nothing here runs unless CPUID reports AVX2.
#include "tensor/gemm_kernel.h"

namespace gluefl::gemm_detail {

const Kernels kAvx2Kernels = GemmBody<32>::table("avx2");

}  // namespace gluefl::gemm_detail
