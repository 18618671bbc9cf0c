// The one GEMM kernel body, instantiated per ISA: GemmBody<16> by gemm.cpp
// (baseline target) and GemmBody<32> by gemm_avx2.cpp (-mavx2). Include it
// from those two TUs only. Everything here has internal linkage, and the
// body calls no library template, so no out-of-line AVX2 code can be
// shared with (and run by) a baseline caller.
//
// The numeric contract is in ops.h. Each output element is one vector
// lane, so tiling only decides which elements share a register; it never
// changes the order of one element's sum.
#pragma once

#include <cstddef>
#include <cstring>

#include "tensor/gemm.h"

namespace gluefl::gemm_detail {
namespace {

template <int kVecBytes>
struct GemmBody {
  typedef float V __attribute__((vector_size(kVecBytes)));
  static constexpr int kW = kVecBytes / static_cast<int>(sizeof(float));
  static constexpr int kMR = 4;       // rows of C per register tile
  static constexpr int kNV = 2;       // vectors per tile row
  static constexpr int kNR = kNV * kW;  // columns of C per register tile
  static_assert(kNR <= kMaxTileCols, "raise kMaxTileCols");

  static V load(const float* p) {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(float* p, const V& v) { std::memcpy(p, &v, sizeof v); }

  // C[R, NV*kW] (+)= Aop[R, k] * B[k, NV*kW], where Aop(r, p) is
  // a[r*ars + p*aps]. The products are `scalar * vector`: a broadcast
  // written as a braced vector compiles to insert chains.
  template <int R, int NV>
  static void tile(const float* a, size_t ars, size_t aps, const float* b,
                   size_t ldb, float* c, size_t ldc, int k, bool acc) {
    V t[R][NV];
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) {
        if (acc) {
          t[r][v] = load(c + r * ldc + v * kW);
        } else {
          t[r][v] = V{};
        }
      }
    }
    for (int p = 0; p < k; ++p) {
      const float* bp = b + p * ldb;
      const float* ap = a + p * aps;
      V bv[NV];
      for (int v = 0; v < NV; ++v) bv[v] = load(bp + v * kW);
      for (int r = 0; r < R; ++r) {
        const float av = ap[r * ars];
        for (int v = 0; v < NV; ++v) t[r][v] += av * bv[v];
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) store(c + r * ldc + v * kW, t[r][v]);
    }
  }

  // All m rows of one column strip, kMR rows at a time.
  template <int NV>
  static void strip(const float* a, size_t ars, size_t aps, const float* b,
                    size_t ldb, float* c, size_t ldc, int m, int k, bool acc) {
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
      tile<kMR, NV>(a + i * ars, ars, aps, b, ldb, c + i * ldc, ldc, k, acc);
    }
    const float* ai = a + i * ars;
    float* ci = c + i * ldc;
    switch (m - i) {
      case 3: tile<3, NV>(ai, ars, aps, b, ldb, ci, ldc, k, acc); break;
      case 2: tile<2, NV>(ai, ars, aps, b, ldb, ci, ldc, k, acc); break;
      case 1: tile<1, NV>(ai, ars, aps, b, ldb, ci, ldc, k, acc); break;
      default: break;
    }
  }

  // C[m, n] (+)= Aop[m, k] * B[k, n]. The strips run column-outer so one
  // k x kNR panel of B stays in L1 while every row block streams past it.
  // The last n % kNR columns go through zero-padded copies of B and C in
  // `ws` (k*kNR + m*kNR floats); the padding lanes are discarded.
  static void run(const float* a, size_t ars, size_t aps, const float* b,
                  size_t ldb, float* c, size_t ldc, int m, int k, int n,
                  bool acc, float* ws) {
    int j = 0;
    for (; j + kNR <= n; j += kNR) {
      strip<kNV>(a, ars, aps, b + j, ldb, c + j, ldc, m, k, acc);
    }
    const int t = n - j;
    if (t == 0) return;
    const int w = t <= kW ? kW : kNR;
    const size_t row_bytes = sizeof(float) * t;
    const size_t pad_bytes = sizeof(float) * (w - t);
    float* bp = ws;
    float* cp = ws + static_cast<size_t>(k) * w;
    for (int p = 0; p < k; ++p) {
      std::memcpy(bp + p * w, b + p * ldb + j, row_bytes);
      std::memset(bp + p * w + t, 0, pad_bytes);
    }
    if (acc) {
      for (int i = 0; i < m; ++i) {
        std::memcpy(cp + i * w, c + i * ldc + j, row_bytes);
        std::memset(cp + i * w + t, 0, pad_bytes);
      }
    }
    if (w == kW) {
      strip<1>(a, ars, aps, bp, w, cp, w, m, k, acc);
    } else {
      strip<kNV>(a, ars, aps, bp, w, cp, w, m, k, acc);
    }
    for (int i = 0; i < m; ++i) {
      std::memcpy(c + i * ldc + j, cp + i * w, row_bytes);
    }
  }

  static void nn(const float* a, const float* b, float* c, int m, int k, int n,
                 bool acc, float* ws) {
    run(a, k, 1, b, n, c, n, m, k, n, acc, ws);
  }

  // C[k, n] (+)= A[m, k]^T * B[m, n]: Aop(r, p) = A[p, r].
  static void tn(const float* a, const float* b, float* c, int m, int k, int n,
                 bool acc, float* ws) {
    run(a, 1, k, b, n, c, n, k, m, n, acc, ws);
  }

  // C[m, k] = (C_old or 0) + s, s = A[m, n] * B[k, n]^T summed from 0.
  // Vector lanes need a unit-stride operand, so this computes
  // Ct[k, m] = B * At with At = A^T, then adds Ct^T onto C. A and C are
  // batch-by-feature and far smaller than B in training, so transposing
  // them is cheaper than transposing B. Each s still sums
  // A[i, j] * B[p, j] over ascending j (float multiply commutes).
  static void nt(const float* a, const float* b, float* c, int m, int n, int k,
                 bool acc, float* ws) {
    const size_t lm = m, ln = n, lk = k;
    float* at = ws;
    float* ct = at + lm * ln;
    for (size_t i = 0; i < lm; ++i) {
      for (size_t j = 0; j < ln; ++j) at[j * lm + i] = a[i * ln + j];
    }
    run(b, ln, 1, at, lm, ct, lm, k, n, m, /*acc=*/false, ct + lk * lm);
    for (size_t i = 0; i < lm; ++i) {
      float* ci = c + i * lk;
      for (size_t p = 0; p < lk; ++p) {
        ci[p] = (acc ? ci[p] : 0.0f) + ct[p * lm + i];
      }
    }
  }

  static constexpr Kernels table(const char* name) {
    return Kernels{name, kMR, kNR, &nn, &nt, &tn};
  }
};

}  // namespace
}  // namespace gluefl::gemm_detail
