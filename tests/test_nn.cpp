// Layer/model tests: finite-difference gradient checks for every layer
// type, BatchNorm semantics, optimizer math, and end-to-end trainability.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/gradcheck.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/proxies.h"
#include "nn/residual.h"

namespace gluefl {
namespace {

struct Batch {
  std::vector<float> x;
  std::vector<int> y;
};

Batch random_batch(int bs, int dim, int classes, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.x.resize(static_cast<size_t>(bs) * dim);
  b.y.resize(static_cast<size_t>(bs));
  for (auto& v : b.x) v = static_cast<float>(rng.normal());
  for (auto& v : b.y) v = rng.uniform_int(0, classes - 1);
  return b;
}

FlatModel linear_model() {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 3));
  m.finalize();
  return m;
}

TEST(NnModel, ParamDimsAddUp) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));   // 8*16 + 16 = 144
  m.add(std::make_unique<BatchNorm1d>(16)); // 32 params, 33 stats
  m.add(std::make_unique<ReLU>(16));
  m.add(std::make_unique<Linear>(16, 4));   // 16*4 + 4 = 68
  m.finalize();
  EXPECT_EQ(m.param_dim(), 144u + 32u + 68u);
  EXPECT_EQ(m.stat_dim(), 33u);
}

TEST(NnModel, RejectsDimMismatch) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));
  EXPECT_THROW(m.add(std::make_unique<Linear>(8, 4)), CheckError);
}

TEST(NnModel, RejectsWrongOutputDim) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));
  EXPECT_THROW(m.finalize(), CheckError);
}

TEST(NnModel, InitIsDeterministic) {
  FlatModel m = linear_model();
  Rng r1(5);
  Rng r2(5);
  EXPECT_EQ(m.make_params(r1), m.make_params(r2));
}

TEST(NnGradCheck, LinearOnly) {
  FlatModel m = linear_model();
  const Batch b = random_batch(4, 6, 3, 1);
  Rng rng(2);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 4, rng, 0);
  EXPECT_LT(res.max_rel_err, 2e-2) << "abs err " << res.max_abs_err;
}

TEST(NnGradCheck, LinearRelu) {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 10));
  m.add(std::make_unique<ReLU>(10));
  m.add(std::make_unique<Linear>(10, 3));
  m.finalize();
  const Batch b = random_batch(5, 6, 3, 3);
  Rng rng(4);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 5, rng, 0);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

TEST(NnGradCheck, WithBatchNorm) {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 8));
  m.add(std::make_unique<BatchNorm1d>(8));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<Linear>(8, 3));
  m.finalize();
  const Batch b = random_batch(8, 6, 3, 5);
  Rng rng(6);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 8, rng, 128);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(NnGradCheck, ResidualBlock) {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 8));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<ResidualBlock>(8));
  m.add(std::make_unique<Linear>(8, 3));
  m.finalize();
  const Batch b = random_batch(8, 6, 3, 7);
  Rng rng(8);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 8, rng, 128);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(NnBatchNorm, UpdatesRunningStatsInTraining) {
  FlatModel m(4, 2);
  m.add(std::make_unique<BatchNorm1d>(4));
  m.add(std::make_unique<Linear>(4, 2));
  m.finalize();
  Rng rng(9);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  // stats layout: mean[4], var[4], count[1], then nothing for Linear.
  EXPECT_FLOAT_EQ(stats[0], 0.0f);
  EXPECT_FLOAT_EQ(stats[4], 1.0f);
  EXPECT_FLOAT_EQ(stats[8], 0.0f);

  const Batch b = random_batch(16, 4, 2, 10);
  std::vector<float> grads(m.param_dim());
  m.forward_backward(params.data(), stats.data(), b.x.data(), b.y.data(), 16,
                     grads.data());
  EXPECT_FLOAT_EQ(stats[8], 1.0f);  // num_batches_tracked incremented
  // Running mean moved toward the batch mean (momentum 0.1, inputs ~N(0,1)).
  bool moved = false;
  for (int j = 0; j < 4; ++j) {
    if (std::fabs(stats[static_cast<size_t>(j)]) > 1e-6) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(NnBatchNorm, EvalModeDoesNotTouchStats) {
  FlatModel m(4, 2);
  m.add(std::make_unique<BatchNorm1d>(4));
  m.add(std::make_unique<Linear>(4, 2));
  m.finalize();
  Rng rng(11);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  const auto stats_before = stats;
  const Batch b = random_batch(8, 4, 2, 12);
  std::vector<float> logits(8 * 2);
  m.predict(params.data(), stats.data(), b.x.data(), 8, logits.data());
  EXPECT_EQ(stats, stats_before);
}

TEST(NnBatchNorm, TrainingForwardNormalizes) {
  // Direct layer test: training output should have ~zero mean, unit var.
  BatchNorm1d bn(3);
  bn.bind({0, bn.param_count()}, {0, bn.stat_count()});
  std::vector<float> params(bn.param_count());
  std::vector<float> stats(bn.stat_count());
  Rng rng(13);
  bn.init_params(params.data(), rng);
  bn.init_stats(stats.data());
  const int bs = 64;
  std::vector<float> in(static_cast<size_t>(bs) * 3);
  for (auto& v : in) v = static_cast<float>(rng.normal(3.0, 2.0));
  std::vector<float> out(in.size());
  bn.forward(params.data(), stats.data(), in.data(), out.data(), bs, true);
  for (int j = 0; j < 3; ++j) {
    double mu = 0.0, var = 0.0;
    for (int i = 0; i < bs; ++i) mu += out[static_cast<size_t>(i) * 3 + j];
    mu /= bs;
    for (int i = 0; i < bs; ++i) {
      const double d = out[static_cast<size_t>(i) * 3 + j] - mu;
      var += d * d;
    }
    var /= bs;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(NnLoss, MatchesManualComputation) {
  // Two classes, logits (0, 0) -> loss = ln 2 regardless of label.
  const std::vector<float> logits{0.0f, 0.0f};
  const int y0 = 0;
  EXPECT_NEAR(softmax_xent(logits.data(), &y0, 1, 2, nullptr), std::log(2.0f),
              1e-6);
}

TEST(NnLoss, GradientRowsSumToZero) {
  Rng rng(14);
  const int bs = 4, c = 5;
  std::vector<float> logits(static_cast<size_t>(bs) * c);
  for (auto& v : logits) v = static_cast<float>(rng.normal());
  std::vector<int> y{0, 1, 2, 3};
  std::vector<float> g(logits.size());
  softmax_xent(logits.data(), y.data(), bs, c, g.data());
  for (int i = 0; i < bs; ++i) {
    double s = 0.0;
    for (int j = 0; j < c; ++j) s += g[static_cast<size_t>(i) * c + j];
    EXPECT_NEAR(s, 0.0, 1e-6);  // softmax grad rows are zero-sum
  }
}

TEST(NnLoss, TopkAccuracy) {
  // logits row: class 2 highest, class 0 second.
  const std::vector<float> logits{1.0f, -1.0f, 2.0f};
  int y = 0;
  EXPECT_DOUBLE_EQ(accuracy_topk(logits.data(), &y, 1, 3, 1), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_topk(logits.data(), &y, 1, 3, 2), 1.0);
  y = 2;
  EXPECT_DOUBLE_EQ(accuracy_topk(logits.data(), &y, 1, 3, 1), 1.0);
}

TEST(NnOptimizer, MomentumAccumulates) {
  SgdMomentum opt(2, 0.9);
  std::vector<float> w{0.0f, 0.0f};
  const std::vector<float> g{1.0f, -2.0f};
  opt.step(w.data(), g.data(), 0.1);
  EXPECT_NEAR(w[0], -0.1f, 1e-6);  // v = g
  opt.step(w.data(), g.data(), 0.1);
  EXPECT_NEAR(w[0], -0.1f - 0.1f * 1.9f, 1e-6);  // v = 0.9*g + g
  EXPECT_NEAR(w[1], 0.2f + 0.1f * 3.8f, 1e-6);
}

TEST(NnOptimizer, ResetClearsVelocity) {
  SgdMomentum opt(1, 0.9);
  std::vector<float> w{0.0f};
  const std::vector<float> g{1.0f};
  opt.step(w.data(), g.data(), 1.0);
  opt.reset();
  w[0] = 0.0f;
  opt.step(w.data(), g.data(), 1.0);
  EXPECT_NEAR(w[0], -1.0f, 1e-6);
}

TEST(NnModel, TrainingReducesLossOnSeparableData) {
  FlatModel m(2, 2);
  m.add(std::make_unique<Linear>(2, 8));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<Linear>(8, 2));
  m.finalize();
  Rng rng(15);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  // Separable blobs at (+2, +2) and (-2, -2).
  const int n = 64;
  std::vector<float> x(static_cast<size_t>(n) * 2);
  std::vector<int> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    const float cx = label == 0 ? 2.0f : -2.0f;
    x[static_cast<size_t>(i) * 2] = cx + static_cast<float>(rng.normal()) * 0.3f;
    x[static_cast<size_t>(i) * 2 + 1] =
        cx + static_cast<float>(rng.normal()) * 0.3f;
    y[static_cast<size_t>(i)] = label;
  }
  std::vector<float> grads(m.param_dim());
  SgdMomentum opt(m.param_dim(), 0.9);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 60; ++step) {
    const float loss = m.forward_backward(params.data(), stats.data(),
                                          x.data(), y.data(), n, grads.data());
    if (step == 0) first_loss = loss;
    last_loss = loss;
    opt.step(params.data(), grads.data(), 0.05);
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
  const auto eval =
      m.evaluate(params.data(), stats.data(), x.data(), y.data(), n, 32, 1);
  EXPECT_GT(eval.accuracy, 0.95);
}

TEST(NnModel, CloneSharesArchitectureNotCaches) {
  FlatModel m = linear_model();
  FlatModel c = m.clone();
  EXPECT_EQ(c.param_dim(), m.param_dim());
  EXPECT_EQ(c.stat_dim(), m.stat_dim());
  // Both instances evaluate the same parameters to the same logits.
  Rng rng(16);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  const Batch b = random_batch(3, 6, 3, 17);
  std::vector<float> l1(9), l2(9);
  m.predict(params.data(), stats.data(), b.x.data(), 3, l1.data());
  c.predict(params.data(), stats.data(), b.x.data(), 3, l2.data());
  EXPECT_EQ(l1, l2);
}

TEST(NnProxies, DimensionsAndCosts) {
  auto sn = make_shufflenet_proxy(64, 62);
  auto mn = make_mobilenet_proxy(64, 62);
  auto rn = make_resnet34_proxy(64, 35);
  EXPECT_GT(sn.model.param_dim(), 10000u);
  EXPECT_GT(mn.model.param_dim(), sn.model.param_dim());
  EXPECT_GT(rn.model.param_dim(), 10000u);
  EXPECT_GT(rn.flops_per_sample, mn.flops_per_sample);
  EXPECT_GT(mn.flops_per_sample, sn.flops_per_sample);
  // All three carry BatchNorm statistics.
  EXPECT_GT(sn.model.stat_dim(), 0u);
  EXPECT_GT(rn.model.stat_dim(), 0u);
}

TEST(NnProxies, FactoryByName) {
  EXPECT_EQ(make_proxy("shufflenet", 8, 4).name, "shufflenet");
  EXPECT_EQ(make_proxy("resnet34", 8, 4).name, "resnet34");
  EXPECT_THROW(make_proxy("vgg", 8, 4), CheckError);
}

TEST(NnProxies, ResNetProxyGradCheck) {
  auto proxy = make_resnet34_proxy(6, 3);
  const Batch b = random_batch(8, 6, 3, 18);
  Rng rng(19);
  const auto res = grad_check(proxy.model, b.x.data(), b.y.data(), 8, rng, 96);
  EXPECT_LT(res.max_rel_err, 8e-2);
}

// ------------------------------------------ bitwise equality with the
// feature-at-a-time loops the vectorized layer kernels replaced, kept here
// as references (DESIGN.md §7b). Every comparison is memcmp: the fast
// paths must not move a single bit, including on ±0, denormals and ±inf.

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

// Normals with ±0, ±denormal and ±inf sprinkled in; `special` is the
// probability of a special value.
std::vector<float> edge_values(size_t n, uint64_t seed, double special) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float kSpecial[] = {0.0f, -0.0f, 3 * denorm, -denorm, inf, -inf};
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.uniform() < special
            ? kSpecial[rng.uniform_int(0, 5)]
            : static_cast<float>(rng.normal());
  }
  return v;
}

struct RefBatchNorm {
  explicit RefBatchNorm(int d) : dim(d) {}
  int dim;
  float momentum = 0.1f;
  float eps = 1e-5f;
  std::vector<float> xhat, inv_std;

  // params = [gamma, beta]; stats = [running mean, running var, count].
  void forward(const float* params, float* stats, const float* in,
               float* out, int bs, bool training) {
    const float* gamma = params;
    const float* beta = gamma + dim;
    float* run_mean = stats;
    float* run_var = run_mean + dim;
    if (!training) {
      for (int j = 0; j < dim; ++j) {
        const float istd = 1.0f / std::sqrt(run_var[j] + eps);
        const float m = run_mean[j];
        for (int i = 0; i < bs; ++i) {
          const size_t idx = static_cast<size_t>(i) * dim + j;
          out[idx] = gamma[j] * (in[idx] - m) * istd + beta[j];
        }
      }
      return;
    }
    xhat.resize(static_cast<size_t>(bs) * dim);
    inv_std.resize(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      double m = 0.0;
      for (int i = 0; i < bs; ++i) m += in[static_cast<size_t>(i) * dim + j];
      m /= bs;
      double v = 0.0;
      for (int i = 0; i < bs; ++i) {
        const double d = in[static_cast<size_t>(i) * dim + j] - m;
        v += d * d;
      }
      const double var_biased = v / bs;
      const double var_unbiased = v / (bs - 1);
      const float istd =
          1.0f / std::sqrt(static_cast<float>(var_biased) + eps);
      inv_std[static_cast<size_t>(j)] = istd;
      for (int i = 0; i < bs; ++i) {
        const size_t idx = static_cast<size_t>(i) * dim + j;
        const float xh = (in[idx] - static_cast<float>(m)) * istd;
        xhat[idx] = xh;
        out[idx] = gamma[j] * xh + beta[j];
      }
      run_mean[j] = (1.0f - momentum) * run_mean[j] +
                    momentum * static_cast<float>(m);
      run_var[j] = (1.0f - momentum) * run_var[j] +
                   momentum * static_cast<float>(var_unbiased);
    }
    stats[2 * dim] += 1.0f;
  }

  void backward(const float* params, const float* gout, float* gin,
                float* grads, int bs) {
    const float* gamma = params;
    float* ggamma = grads;
    float* gbeta = ggamma + dim;
    for (int j = 0; j < dim; ++j) {
      double sum_g = 0.0;
      double sum_gx = 0.0;
      for (int i = 0; i < bs; ++i) {
        const size_t idx = static_cast<size_t>(i) * dim + j;
        sum_g += gout[idx];
        sum_gx += static_cast<double>(gout[idx]) * xhat[idx];
      }
      ggamma[j] += static_cast<float>(sum_gx);
      gbeta[j] += static_cast<float>(sum_g);
      if (gin != nullptr) {
        const float istd = inv_std[static_cast<size_t>(j)];
        const float c = gamma[j] * istd / static_cast<float>(bs);
        for (int i = 0; i < bs; ++i) {
          const size_t idx = static_cast<size_t>(i) * dim + j;
          gin[idx] = c * (static_cast<float>(bs) * gout[idx] -
                          static_cast<float>(sum_g) -
                          xhat[idx] * static_cast<float>(sum_gx));
        }
      }
    }
  }
};

constexpr int kBitwiseBatches[] = {2, 3, 16, 17};
constexpr int kBitwiseDims[] = {1, 7, 64, 128, 130};

TEST(NnBitwise, BatchNormMatchesReferenceLoops) {
  for (const double special : {0.0, 0.1}) {
    for (const int bs : kBitwiseBatches) {
      for (const int dim : kBitwiseDims) {
        SCOPED_TRACE("bs=" + std::to_string(bs) +
                     " dim=" + std::to_string(dim) +
                     " special=" + std::to_string(special));
        const size_t n = static_cast<size_t>(bs) * dim;
        const uint64_t seed = static_cast<uint64_t>(bs * 1000 + dim);
        BatchNorm1d bn(dim);
        bn.bind({0, bn.param_count()}, {0, bn.stat_count()});
        RefBatchNorm ref(dim);
        // Non-trivial gamma/beta and running stats, specials included.
        const std::vector<float> params =
            edge_values(bn.param_count(), seed, special);
        std::vector<float> stats = edge_values(bn.stat_count(), seed + 1, 0.0);
        for (int j = 0; j < dim; ++j) {
          stats[static_cast<size_t>(dim + j)] =
              std::fabs(stats[static_cast<size_t>(dim + j)]) + 0.5f;
        }
        std::vector<float> ref_stats = stats;
        const std::vector<float> in = edge_values(n, seed + 2, special);
        const std::vector<float> gout = edge_values(n, seed + 3, special);

        std::vector<float> out(n), ref_out(n);
        bn.forward(params.data(), stats.data(), in.data(), out.data(), bs,
                   /*training=*/false);
        ref.forward(params.data(), ref_stats.data(), in.data(),
                    ref_out.data(), bs, /*training=*/false);
        EXPECT_TRUE(same_bits(out, ref_out)) << "eval forward";

        bn.forward(params.data(), stats.data(), in.data(), out.data(), bs,
                   /*training=*/true);
        ref.forward(params.data(), ref_stats.data(), in.data(),
                    ref_out.data(), bs, /*training=*/true);
        EXPECT_TRUE(same_bits(out, ref_out)) << "training forward";
        EXPECT_TRUE(same_bits(stats, ref_stats)) << "running stats";

        for (const bool with_gin : {true, false}) {
          std::vector<float> grads = edge_values(params.size(), seed + 4, 0.0);
          std::vector<float> ref_grads = grads;
          std::vector<float> gin(n), ref_gin(n);
          bn.backward(params.data(), gout.data(),
                      with_gin ? gin.data() : nullptr, grads.data(), bs);
          ref.backward(params.data(), gout.data(),
                       with_gin ? ref_gin.data() : nullptr, ref_grads.data(),
                       bs);
          EXPECT_TRUE(same_bits(grads, ref_grads)) << "gin=" << with_gin;
          EXPECT_TRUE(same_bits(gin, ref_gin)) << "gin=" << with_gin;
        }
      }
    }
  }
}

TEST(NnBitwise, ReluMatchesReferenceLoops) {
  for (const int bs : kBitwiseBatches) {
    for (const int dim : kBitwiseDims) {
      const size_t n = static_cast<size_t>(bs) * dim;
      const uint64_t seed = static_cast<uint64_t>(bs * 1000 + dim);
      const std::vector<float> in = edge_values(n, seed, 0.2);
      const std::vector<float> gout = edge_values(n, seed + 1, 0.2);
      ReLU relu(dim);
      std::vector<float> out(n), gin(n), ref_out(n), ref_gin(n);
      relu.forward(nullptr, nullptr, in.data(), out.data(), bs, true);
      relu.backward(nullptr, gout.data(), gin.data(), nullptr, bs);
      for (size_t i = 0; i < n; ++i) {
        ref_out[i] = in[i] > 0.0f ? in[i] : 0.0f;
        ref_gin[i] = ref_out[i] > 0.0f ? gout[i] : 0.0f;
      }
      EXPECT_TRUE(same_bits(out, ref_out)) << bs << "x" << dim;
      EXPECT_TRUE(same_bits(gin, ref_gin)) << bs << "x" << dim;
    }
  }
}

TEST(NnBitwise, SgdMomentumMatchesReferenceLoop) {
  for (const size_t n : {size_t{1}, size_t{7}, size_t{130}, size_t{33600}}) {
    std::vector<float> w = edge_values(n, n, 0.0);
    std::vector<float> ref_w = w;
    std::vector<float> ref_v(n, 0.0f);
    SgdMomentum opt(n, 0.9);
    for (int step = 0; step < 3; ++step) {
      const std::vector<float> g =
          edge_values(n, n + 1 + static_cast<uint64_t>(step), 0.1);
      opt.step(w.data(), g.data(), 0.05);
      const float mu = 0.9f, eta = 0.05f;
      for (size_t i = 0; i < n; ++i) {
        ref_v[i] = mu * ref_v[i] + g[i];
        ref_w[i] -= eta * ref_v[i];
      }
    }
    EXPECT_TRUE(same_bits(w, ref_w)) << "n=" << n;
  }
}

}  // namespace
}  // namespace gluefl
