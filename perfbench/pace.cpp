#include "pace.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace gluefl::perfbench {
namespace {

using Steady = std::chrono::steady_clock;

/// Best of three timings of fn: an interrupt or a preemption in one of
/// them does not count, a slow stretch of the core covers all three.
template <class Fn>
double best_of_3(Fn&& fn) {
  double best = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Steady::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(Steady::now() - t0).count());
  }
  return best;
}

}  // namespace

PaceSample sample_pace() {
  constexpr int kDim = 64;  // three 16 KiB matrices: resident in L1/L2
  static const std::vector<float> a(kDim * kDim, 1.0f), b(kDim * kDim, 0.5f);
  static std::vector<float> c(kDim * kDim);
  static const std::vector<uint64_t> stream(size_t{1} << 19, 1);  // 4 MiB
  // Inputs and results go through volatiles so no part can be hoisted or
  // folded away.
  static volatile float sink = 0.0f;
  static volatile uint64_t sink_u = 0;

  PaceSample s;
  s.compute_s = best_of_3([] {
    c.assign(c.size(), 0.0f);
    const float bias = sink;
    for (int rep = 0; rep < 10; ++rep) {
      for (int i = 0; i < kDim; ++i) {
        for (int k = 0; k < kDim; ++k) {
          const float x = a[i * kDim + k] + bias;
          for (int j = 0; j < kDim; ++j) c[i * kDim + j] += x * b[k * kDim + j];
        }
      }
    }
    sink = sink + c[5] * 0.0f;
  });
  s.memory_s = best_of_3([] {
    uint64_t sum = 0;
    for (uint64_t v : stream) sum += v;
    sink_u = sink_u + sum;
  });
  return s;
}

}  // namespace gluefl::perfbench
