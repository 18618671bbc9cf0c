#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "agg/aggregator.h"
#include "agg/sparse_delta.h"
#include "compress/topk.h"
#include "data/presets.h"
#include "fl/sim_config.h"
#include "nn/proxies.h"
#include "strategies/factory.h"
#include "tensor/ops.h"
#include "wire/codec.h"

namespace gluefl::perfbench {
namespace {

struct Timing {
  double median_s = 0.0;  // per call, median of the batches
  double best_s = 0.0;    // per call, fastest batch
};

/// Per-call time of `fn`: one warm-up call, a batch size doubled until a
/// batch takes >= 20 ms, then five timed batches.
template <class Fn>
Timing time_calls(Fn&& fn) {
  using clk = std::chrono::steady_clock;
  const auto batch = [&fn](long calls) {
    const auto t = clk::now();
    for (long i = 0; i < calls; ++i) fn();
    return std::chrono::duration<double>(clk::now() - t).count();
  };
  fn();
  long calls = 1;
  while (batch(calls) < 0.02) calls *= 2;
  std::vector<double> per;
  for (int b = 0; b < 5; ++b) per.push_back(batch(calls) / calls);
  std::sort(per.begin(), per.end());
  return {per[2], per[0]};
}

std::vector<float> normals(size_t n, uint32_t seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(gen);
  return v;
}

SyntheticSpec spec_of(const std::string& dataset) {
  if (dataset == "femnist") return femnist_spec();
  if (dataset == "openimage") return openimage_spec();
  if (dataset == "speech") return speech_spec();
  throw std::runtime_error("unknown dataset " + dataset);
}

/// Hidden width of the shufflenet MLP-BN proxy (nn/proxies.cpp). The
/// parameter count is checked against the built proxy so a changed
/// architecture fails here instead of probing stale shapes.
int mlp_width(const std::string& model, const ModelProxy& proxy, int in,
              int classes) {
  const int w = 128;
  const size_t expect = static_cast<size_t>(in) * w + w + 2 * w +
                        static_cast<size_t>(w) * w + w + 2 * w +
                        static_cast<size_t>(w) * classes + classes;
  if (model != "shufflenet" || proxy.model.param_dim() != expect) {
    throw std::runtime_error("probe shapes do not match the " + model +
                             " proxy");
  }
  return w;
}

/// GFLOP/s of one GEMM kind over the proxy's three Linear layers at the
/// training batch size (forward gemm_nn, backward gemm_tn / gemm_nt).
double gemm_gflops(char kind, int bs, const std::vector<std::pair<int, int>>& layers) {
  double flops = 0.0, seconds = 0.0;
  for (const auto& [in, out] : layers) {
    const std::vector<float> x = normals(static_cast<size_t>(bs) * in, 1);
    const std::vector<float> w = normals(static_cast<size_t>(in) * out, 2);
    const std::vector<float> g = normals(static_cast<size_t>(bs) * out, 3);
    std::vector<float> y(static_cast<size_t>(bs) * out);
    std::vector<float> gw(static_cast<size_t>(in) * out);
    std::vector<float> gin(static_cast<size_t>(bs) * in);
    Timing t;
    if (kind == 'n') {
      t = time_calls([&] { gemm_nn(x.data(), w.data(), y.data(), bs, in, out); });
    } else if (kind == 't') {
      t = time_calls([&] {
        gemm_tn(x.data(), g.data(), gw.data(), bs, in, out, true);
      });
    } else {
      t = time_calls([&] { gemm_nt(g.data(), w.data(), gin.data(), bs, out, in); });
    }
    flops += 2.0 * bs * in * out;
    seconds += t.median_s;
  }
  return flops / seconds / 1e9;
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) float fma_loop_avx2(long iters,
                                                         float seed) {
  __m256 acc[10];
  for (int j = 0; j < 10; ++j) acc[j] = _mm256_set1_ps(seed + 0.001f * j);
  const __m256 m = _mm256_set1_ps(0.999999f);
  const __m256 a = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int j = 0; j < 10; ++j) acc[j] = _mm256_fmadd_ps(acc[j], m, a);
  }
  __m256 s = acc[0];
  for (int j = 1; j < 10; ++j) s = _mm256_add_ps(s, acc[j]);
  float out[8];
  _mm256_storeu_ps(out, s);
  return out[0];
}
#endif

/// Single-core peak FLOP rate: independent FMA chains that fill the
/// pipeline (AVX2+FMA where the CPU has it, scalar otherwise).
double fma_gflops() {
  // Inputs read through volatiles so the compiler cannot hoist the loop
  // out of the timing batch as a pure function of constants.
  constexpr long kIters = 1 << 16;
  volatile long iters = kIters;
  volatile float sink = 0.0f;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    const Timing t = time_calls([&] { sink = sink + fma_loop_avx2(iters, sink); });
    return kIters * 10.0 * 8 * 2 / t.best_s / 1e9;
  }
#endif
  const Timing t = time_calls([&] {
    float acc[8] = {sink, 1, 2, 3, 4, 5, 6, 7};
    for (long i = 0; i < iters; ++i) {
      for (float& v : acc) v = v * 0.999999f + 1e-7f;
    }
    sink = sink + acc[0];
  });
  return kIters * 8.0 * 2 / t.best_s / 1e9;
}

/// Single-core memory-copy ceiling, STREAM-copy style: bytes read plus
/// bytes written per second over buffers far larger than the caches.
double copy_gb_per_s() {
  const size_t n = size_t{64} << 20;
  std::vector<char> src(n, 1), dst(n, 0);
  const Timing t = time_calls([&] {
    std::memcpy(dst.data(), src.data(), n);
    asm volatile("" : : "r"(dst.data()) : "memory");  // keep every copy
  });
  return 2.0 * static_cast<double>(n) / t.best_s / 1e9;
}

}  // namespace

int run_probes(const std::string& dataset, const std::string& model,
               const std::string& strategy, const std::string& out_path) {
  const SyntheticSpec spec = spec_of(dataset);
  const ModelProxy proxy =
      make_proxy(model, spec.feature_dim, spec.num_classes);
  const int width =
      mlp_width(model, proxy, spec.feature_dim, spec.num_classes);
  const std::vector<std::pair<int, int>> layers = {
      {spec.feature_dim, width}, {width, width}, {width, spec.num_classes}};
  const int bs = TrainConfig{}.batch_size;
  const int k_clients = preset_clients_per_round(spec);
  const size_t dim = proxy.model.param_dim();
  const size_t stat_dim = proxy.model.stat_dim();

  std::map<std::string, double> m;
  m["tensor.gemm_nn.gflops"] = gemm_gflops('n', bs, layers);
  m["tensor.gemm_nt.gflops"] = gemm_gflops('N', bs, layers);
  m["tensor.gemm_tn.gflops"] = gemm_gflops('t', bs, layers);

  // Top-k at the strategy's selection size: GlueFL selects its unique
  // part (q - q_shr), STC all of q; async-fedbuff ships dense updates, so
  // its probe uses the model's q.
  double q = default_mask_ratio(model);
  if (strategy == "gluefl") {
    const GlueFlConfig cfg = calibrated_gluefl_config(k_clients, model);
    q = cfg.q - cfg.q_shr;
  }
  const size_t k = static_cast<size_t>(std::llround(q * static_cast<double>(dim)));
  const std::vector<float> x = normals(dim, 4);
  size_t picked = 0;
  m["compress.top_k.mvalues_per_s"] =
      static_cast<double>(dim) /
      time_calls([&] { picked += top_k_abs(x.data(), dim, k).nnz(); })
          .median_s /
      1e6;

  // Wire frames as the strategy ships them: sparse top-k (+ stats) for the
  // masking strategies, dense (+ stats) for async-fedbuff.
  const bool dense = strategy == "async-fedbuff";
  const SparseVec sv = top_k_abs(x.data(), dim, k);
  const std::vector<float> stats = normals(stat_dim, 5);
  const auto encode = [&] {
    wire::WireEncoder we(dim);
    if (dense) {
      we.add_dense(x.data(), dim);
    } else {
      we.add_unique(sv);
    }
    we.add_stats(stats.data(), stat_dim);
    return we.finish();
  };
  const std::vector<uint8_t> frame = encode();
  const double frame_gb = static_cast<double>(frame.size()) / 1e9;
  size_t frame_bytes = 0;
  m["wire.encode.gb_per_s"] =
      frame_gb / time_calls([&] { frame_bytes += encode().size(); }).median_s;
  size_t decoded = 0;
  m["wire.decode.gb_per_s"] =
      frame_gb / time_calls([&] {
        wire::WireDecoder wd(frame.data(), frame.size(), dim);
        decoded += (dense ? wd.take_dense(1.0f) : wd.take_unique(1.0f)).nnz();
        decoded += wd.take_stats().size();
      }).median_s;

  // The server-side reduce over one cohort of K updates.
  std::vector<SparseDelta> deltas;
  double agg_bytes = 0.0;
  for (int c = 0; c < k_clients; ++c) {
    std::vector<float> v = normals(dim, 100 + static_cast<uint32_t>(c));
    if (dense) {
      agg_bytes += 4.0 * static_cast<double>(dim);
      deltas.push_back(SparseDelta::dense(std::move(v), 1.0f / k_clients));
    } else {
      SparseVec s = top_k_abs(v.data(), dim, k);
      agg_bytes += 8.0 * static_cast<double>(s.nnz());
      deltas.push_back(SparseDelta::from_sparse(std::move(s), 1.0f / k_clients));
    }
  }
  std::vector<float> acc(dim, 0.0f);
  const DenseAggregator agg;
  m["agg.reduce.gb_per_s"] =
      agg_bytes / 1e9 /
      time_calls([&] { agg.reduce(deltas, acc.data(), dim); }).median_s;

  m["machine.copy_gb_per_s"] = copy_gb_per_s();
  m["machine.fma_gflops"] = fma_gflops();

  if (picked == 0 || frame_bytes == 0 || decoded == 0 ||
      !std::isfinite(acc[0])) {
    throw std::runtime_error("probe produced no work");
  }
  std::ofstream out(out_path);
  out << "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  out << "}\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace gluefl::perfbench
