#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/gemm.h"

namespace gluefl {
namespace {

// The plain GEMM loops the register-tiled kernels replaced. They define
// the numeric contract in ops.h: every variant must match them bit for bit.
void ref_gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
                 bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * k;
    float* ci = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = ai[p];
      const float* bp = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void ref_gemm_nt(const float* a, const float* b, float* c, int m, int n, int k,
                 bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(m) * k);
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * n;
    float* ci = c + static_cast<size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* bp = b + static_cast<size_t>(p) * n;
      float acc = accumulate ? ci[p] : 0.0f;
      float s = 0.0f;
      for (int j = 0; j < n; ++j) s += ai[j] * bp[j];
      ci[p] = acc + s;
    }
  }
}

void ref_gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
                 bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(k) * n);
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * k;
    const float* bi = b + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = ai[p];
      float* cp = c + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) cp[j] += av * bi[j];
    }
  }
}

// Normals with exact zeros and negative zeros mixed in, so a kernel that
// started a sum from its first product (or dropped a +0.0f) would differ.
std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    const double u = rng.uniform();
    x = u < 0.05 ? -0.0f : u < 0.1 ? 0.0f : static_cast<float>(rng.normal());
  }
  return v;
}

using gemm_detail::Isa;

enum class GemmKind { kNn, kNt, kTn };

// Element counts of A, B and C for the kind's argument order (d0, d1, d2),
// which is (m, k, n) for nn/tn and (m, n, k) for nt.
struct GemmShape {
  size_t a, b, c;
};
GemmShape gemm_shape(GemmKind kind, int d0, int d1, int d2) {
  const size_t x = d0, y = d1, z = d2;
  switch (kind) {
    case GemmKind::kNn: return {x * y, y * z, x * z};
    case GemmKind::kNt: return {x * y, z * y, x * z};
    case GemmKind::kTn: return {x * y, x * z, y * z};
  }
  return {0, 0, 0};
}

void run_ref(GemmKind kind, const float* a, const float* b, float* c, int d0,
             int d1, int d2, bool acc) {
  switch (kind) {
    case GemmKind::kNn: ref_gemm_nn(a, b, c, d0, d1, d2, acc); break;
    case GemmKind::kNt: ref_gemm_nt(a, b, c, d0, d1, d2, acc); break;
    case GemmKind::kTn: ref_gemm_tn(a, b, c, d0, d1, d2, acc); break;
  }
}

void run_isa(GemmKind kind, Isa isa, const float* a, const float* b, float* c,
             int d0, int d1, int d2, bool acc) {
  switch (kind) {
    case GemmKind::kNn:
      gemm_detail::gemm_nn(isa, a, b, c, d0, d1, d2, acc);
      break;
    case GemmKind::kNt:
      gemm_detail::gemm_nt(isa, a, b, c, d0, d1, d2, acc);
      break;
    case GemmKind::kTn:
      gemm_detail::gemm_tn(isa, a, b, c, d0, d1, d2, acc);
      break;
  }
}

// Every shape with each dimension in {1, tile-1, tile, tile+1, 35, 62, 64,
// 128, 256} for both variants' tile rows and columns, up to 2^18
// multiply-adds (which keeps 16x128x128 and every 256 paired with small
// dimensions, and the suite quick under sanitizers), on every variant the
// CPU runs: memcmp-equal to the reference.
void expect_bitwise_equal(GemmKind kind, bool acc) {
  std::vector<Isa> isas;
  std::vector<int> dims{1, 35, 62, 64, 128, 256};
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2}) {
    if (!gemm_detail::isa_supported(isa)) {
      std::printf("[  SKIPPED ] GEMM variant %d: not supported by this "
                  "build/CPU\n", static_cast<int>(isa));
      continue;
    }
    isas.push_back(isa);
    const auto& k = gemm_detail::kernels(isa);
    for (int t : {k.tile_rows, k.tile_cols}) {
      for (int d : {t - 1, t, t + 1}) dims.push_back(d);
    }
  }
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  Rng rng(static_cast<uint64_t>(kind) * 2 + acc + 11);
  int cases = 0;
  for (int d0 : dims) {
    for (int d1 : dims) {
      for (int d2 : dims) {
        if (static_cast<long>(d0) * d1 * d2 > (1L << 18)) continue;
        const GemmShape s = gemm_shape(kind, d0, d1, d2);
        const auto a = random_vec(s.a, rng);
        const auto b = random_vec(s.b, rng);
        const auto c0 = random_vec(s.c, rng);
        std::vector<float> want = c0;
        run_ref(kind, a.data(), b.data(), want.data(), d0, d1, d2, acc);
        for (Isa isa : isas) {
          std::vector<float> got = c0;
          run_isa(kind, isa, a.data(), b.data(), got.data(), d0, d1, d2, acc);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                sizeof(float) * want.size()), 0)
              << gemm_detail::kernels(isa).name << " shape " << d0 << "x"
              << d1 << "x" << d2;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 1500);
}

TEST(Tensor, GemmNnMatchesReference) {
  expect_bitwise_equal(GemmKind::kNn, false);
}
TEST(Tensor, GemmNnAccumulates) { expect_bitwise_equal(GemmKind::kNn, true); }
TEST(Tensor, GemmNtMatchesReference) {
  expect_bitwise_equal(GemmKind::kNt, false);
}
TEST(Tensor, GemmNtAccumulates) { expect_bitwise_equal(GemmKind::kNt, true); }
TEST(Tensor, GemmTnMatchesReference) {
  expect_bitwise_equal(GemmKind::kTn, false);
}
TEST(Tensor, GemmTnAccumulates) { expect_bitwise_equal(GemmKind::kTn, true); }

// The public gemm_* run the CPUID-picked variant at the training shapes.
TEST(Tensor, GemmPublicEntryPointsMatchReference) {
  Rng rng(5);
  const int bs = 16, in = 128, out = 64;
  const auto x = random_vec(static_cast<size_t>(bs) * in, rng);
  const auto w = random_vec(static_cast<size_t>(in) * out, rng);
  const auto g = random_vec(static_cast<size_t>(bs) * out, rng);
  const auto same = [](const std::vector<float>& u,
                        const std::vector<float>& v) {
    return std::memcmp(u.data(), v.data(), sizeof(float) * u.size()) == 0;
  };
  std::vector<float> y(static_cast<size_t>(bs) * out), y_ref(y.size());
  gemm_nn(x.data(), w.data(), y.data(), bs, in, out);
  ref_gemm_nn(x.data(), w.data(), y_ref.data(), bs, in, out, false);
  EXPECT_TRUE(same(y, y_ref));
  std::vector<float> gw(static_cast<size_t>(in) * out, 0.5f), gw_ref = gw;
  gemm_tn(x.data(), g.data(), gw.data(), bs, in, out, true);
  ref_gemm_tn(x.data(), g.data(), gw_ref.data(), bs, in, out, true);
  EXPECT_TRUE(same(gw, gw_ref));
  std::vector<float> gin(static_cast<size_t>(bs) * in), gin_ref(gin.size());
  gemm_nt(g.data(), w.data(), gin.data(), bs, out, in);
  ref_gemm_nt(g.data(), w.data(), gin_ref.data(), bs, out, in, false);
  EXPECT_TRUE(same(gin, gin_ref));
}

// The workspace is per thread: concurrent callers of different shapes
// (as the engine's 1/4/8 training threads are) never see each other's
// scratch.
TEST(Tensor, GemmConcurrentCallersMatchReference) {
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng(100 + t);
      const int m = 5 + t, n = 37 + 9 * t, k = 64 + 3 * t;
      const auto a = random_vec(static_cast<size_t>(m) * n, rng);
      const auto b = random_vec(static_cast<size_t>(k) * n, rng);
      std::vector<float> want(static_cast<size_t>(m) * k);
      ref_gemm_nt(a.data(), b.data(), want.data(), m, n, k, false);
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<float> got(want.size());
        gemm_nt(a.data(), b.data(), got.data(), m, n, k);
        mismatches[t] += std::memcmp(got.data(), want.data(),
                                     sizeof(float) * got.size()) != 0;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(Tensor, Axpy) {
  std::vector<float> x{1.0f, 2.0f, 3.0f};
  std::vector<float> y{10.0f, 20.0f, 30.0f};
  axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(Tensor, ScaleFillSub) {
  std::vector<float> x{2.0f, 4.0f};
  scale(0.5f, x.data(), 2);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], 2.0f);
  fill(x.data(), 2, 7.0f);
  EXPECT_FLOAT_EQ(x[0], 7.0f);
  std::vector<float> a{5.0f, 3.0f};
  std::vector<float> b{2.0f, 1.0f};
  std::vector<float> out(2);
  sub(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST(Tensor, DotAndSqnorm) {
  std::vector<float> a{1.0f, 2.0f, 3.0f};
  std::vector<float> b{4.0f, 5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(dot(a.data(), b.data(), 3), 32.0);
  EXPECT_DOUBLE_EQ(sqnorm(a.data(), 3), 14.0);
}

TEST(Tensor, AddRowBias) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};  // 2x2
  std::vector<float> bias{10.0f, 20.0f};
  add_row_bias(bias.data(), x.data(), 2, 2);
  EXPECT_FLOAT_EQ(x[0], 11.0f);
  EXPECT_FLOAT_EQ(x[1], 22.0f);
  EXPECT_FLOAT_EQ(x[2], 13.0f);
  EXPECT_FLOAT_EQ(x[3], 24.0f);
}

TEST(Tensor, SoftmaxRows) {
  std::vector<float> x{0.0f, 0.0f, 1000.0f, 0.0f};  // 2x2, row 2 is extreme
  softmax_rows(x.data(), 2, 2);
  EXPECT_NEAR(x[0], 0.5f, 1e-6);
  EXPECT_NEAR(x[1], 0.5f, 1e-6);
  EXPECT_NEAR(x[2], 1.0f, 1e-6);  // no overflow thanks to max-shift
  EXPECT_NEAR(x[3], 0.0f, 1e-6);
  // Rows sum to one.
  EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6);
  EXPECT_NEAR(x[2] + x[3], 1.0f, 1e-6);
}

}  // namespace
}  // namespace gluefl
