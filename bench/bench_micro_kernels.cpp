// Micro-benchmarks (google-benchmark) for the hot kernels of the
// simulator: top-k selection, bitmask algebra, sparse scatter, GEMM, the
// non-GEMM training layers (BatchNorm, SGD momentum, a whole training
// step), and the SyncTracker union that dominates staleness accounting.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/topk.h"
#include "fl/sync_tracker.h"
#include "nn/batchnorm.h"
#include "nn/optimizer.h"
#include "nn/proxies.h"
#include "tensor/ops.h"

namespace gluefl {
namespace {

std::vector<float> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Args: n, k; k = 0 means q = 20%. (33600, 1339) is the openimage
// shufflenet proxy's dimension and per-client unique top-k.
void BM_TopKAbs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k =
      state.range(1) > 0 ? static_cast<size_t>(state.range(1)) : n / 5;
  const auto x = random_vec(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_k_abs(x.data(), n, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopKAbs)
    ->Args({33000, 0})->Args({62000, 0})->Args({1 << 20, 0})
    ->Args({33600, 1339});

void BM_TopKAbsMasked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = random_vec(n, 2);
  BitMask allowed(n);
  for (size_t i = 0; i < n; i += 2) allowed.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_k_abs_masked(x.data(), n, n / 10, allowed));
  }
}
BENCHMARK(BM_TopKAbsMasked)->Arg(33000)->Arg(1 << 20);

void BM_BitMaskUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BitMask a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.set(i);
  for (size_t i = 1; i < n; i += 3) b.set(i);
  for (auto _ : state) {
    BitMask c = a;
    c |= b;
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_BitMaskUnion)->Arg(33000)->Arg(1 << 20);

void BM_ScatterAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = random_vec(n, 3);
  const SparseVec s = top_k_abs(x.data(), n, n / 5);
  std::vector<float> out(n, 0.0f);
  for (auto _ : state) {
    scatter_add(s, 0.5f, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ScatterAdd)->Arg(33000)->Arg(1 << 20);

// The three GEMMs of one training step of a ShuffleNet-proxy Linear layer
// on a batch of 16: forward gemm_nn, backward gemm_tn (weight gradient,
// accumulated) and gemm_nt (input gradient). Args: in, out.
enum class GemmCall { kForward, kWeightGrad, kInputGrad };

template <GemmCall kCall>
void BM_Gemm(benchmark::State& state) {
  const int bs = 16;
  const int in = static_cast<int>(state.range(0));
  const int out = static_cast<int>(state.range(1));
  const auto x = random_vec(static_cast<size_t>(bs) * in, 4);
  const auto w = random_vec(static_cast<size_t>(in) * out, 5);
  const auto g = random_vec(static_cast<size_t>(bs) * out, 6);
  std::vector<float> y(static_cast<size_t>(bs) * out);
  std::vector<float> gw(static_cast<size_t>(in) * out);
  std::vector<float> gin(static_cast<size_t>(bs) * in);
  for (auto _ : state) {
    if (kCall == GemmCall::kForward) {
      gemm_nn(x.data(), w.data(), y.data(), bs, in, out);
      benchmark::DoNotOptimize(y.data());
    } else if (kCall == GemmCall::kWeightGrad) {
      gemm_tn(x.data(), g.data(), gw.data(), bs, in, out, /*accumulate=*/true);
      benchmark::DoNotOptimize(gw.data());
    } else {
      gemm_nt(g.data(), w.data(), gin.data(), bs, out, in);
      benchmark::DoNotOptimize(gin.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * bs *
                          in * out);
}
BENCHMARK_TEMPLATE(BM_Gemm, GemmCall::kForward)
    ->Args({64, 128})->Args({128, 128})->Args({128, 64});
BENCHMARK_TEMPLATE(BM_Gemm, GemmCall::kWeightGrad)
    ->Args({64, 128})->Args({128, 128})->Args({128, 64});
BENCHMARK_TEMPLATE(BM_Gemm, GemmCall::kInputGrad)
    ->Args({64, 128})->Args({128, 128})->Args({128, 64});

// One BatchNorm1d layer of the shufflenet proxy on a batch of 16, in
// training mode. Args: bs, dim.
template <bool kBackward>
void BM_BatchNorm(benchmark::State& state) {
  const int bs = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  BatchNorm1d bn(dim);
  bn.bind({0, bn.param_count()}, {0, bn.stat_count()});
  std::vector<float> params(bn.param_count());
  std::vector<float> stats(bn.stat_count());
  Rng rng(7);
  bn.init_params(params.data(), rng);
  bn.init_stats(stats.data());
  const auto x = random_vec(static_cast<size_t>(bs) * dim, 8);
  const auto g = random_vec(static_cast<size_t>(bs) * dim, 9);
  std::vector<float> y(x.size()), gin(x.size()), grads(params.size());
  bn.forward(params.data(), stats.data(), x.data(), y.data(), bs, true);
  for (auto _ : state) {
    if (kBackward) {
      bn.backward(params.data(), g.data(), gin.data(), grads.data(), bs);
      benchmark::DoNotOptimize(gin.data());
    } else {
      bn.forward(params.data(), stats.data(), x.data(), y.data(), bs, true);
      benchmark::DoNotOptimize(y.data());
    }
  }
}
void BM_BatchNormForward(benchmark::State& state) { BM_BatchNorm<false>(state); }
void BM_BatchNormBackward(benchmark::State& state) { BM_BatchNorm<true>(state); }
BENCHMARK(BM_BatchNormForward)->Args({16, 128});
BENCHMARK(BM_BatchNormBackward)->Args({16, 128});

// One client optimizer step over the openimage shufflenet proxy's 33,600
// parameters.
void BM_SgdMomentumStep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SgdMomentum opt(n, 0.9);
  auto params = random_vec(n, 10);
  const auto grads = random_vec(n, 11);
  for (auto _ : state) {
    opt.step(params.data(), grads.data(), 1e-3);
    benchmark::DoNotOptimize(params.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * 5 * sizeof(float)));
}
BENCHMARK(BM_SgdMomentumStep)->Arg(33600);

// One local SGD step as the engine runs it: the shufflenet proxy on the
// openimage shape (64 features, 64 classes), forward_backward plus the
// momentum step, at batch size 16.
void BM_TrainStep(benchmark::State& state) {
  const int bs = 16, feat = 64, classes = 64;
  ModelProxy proxy = make_shufflenet_proxy(feat, classes);
  FlatModel& model = proxy.model;
  Rng rng(12);
  auto params = model.make_params(rng);
  auto stats = model.make_stats();
  std::vector<float> grads(model.param_dim());
  const auto x = random_vec(static_cast<size_t>(bs) * feat, 13);
  std::vector<int> y(static_cast<size_t>(bs));
  for (int i = 0; i < bs; ++i) y[static_cast<size_t>(i)] = (i * 7) % classes;
  SgdMomentum opt(model.param_dim(), 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward_backward(
        params.data(), stats.data(), x.data(), y.data(), bs, grads.data()));
    opt.step(params.data(), grads.data(), 1e-3);
  }
}
BENCHMARK(BM_TrainStep);

void BM_SyncTrackerUnion(benchmark::State& state) {
  // A client stale by `range` rounds under q = 20% masking of a 33k-dim
  // model: the per-invitee cost of the staleness accounting.
  const size_t dim = 33000;
  const int stale = static_cast<int>(state.range(0));
  SyncTracker t(4, dim);
  Rng rng(6);
  for (int r = 0; r < stale; ++r) {
    BitMask m(dim);
    for (size_t i = 0; i < dim / 5; ++i) {
      m.set(static_cast<size_t>(rng.uniform_int(0, static_cast<int>(dim) - 1)));
    }
    t.record_round_changes(r, m);
  }
  t.mark_synced(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.stale_positions(0, stale));
  }
}
BENCHMARK(BM_SyncTrackerUnion)->Arg(10)->Arg(100)->Arg(500);

}  // namespace
}  // namespace gluefl

BENCHMARK_MAIN();
