#include "compress/topk.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/check.h"

namespace gluefl {

namespace {

// One unsigned key per candidate: the bits of |x[i]| above ~i. Non-negative
// floats order like their bit patterns, so a larger key means a larger
// magnitude, then a lower index: the (|x| desc, index asc) order, with
// every key distinct. A NaN's magnitude bits exceed +inf's, so NaNs rank
// first instead of breaking the ordering.
uint64_t magnitude_key(const float* x, uint32_t i) {
  uint32_t bits;
  std::memcpy(&bits, x + i, sizeof bits);
  return (static_cast<uint64_t>(bits & 0x7fffffffu) << 32) | ~i;
}

SparseVec select_from(std::vector<uint64_t> keys, const float* x, size_t k) {
  SparseVec out;
  if (k == 0 || keys.empty()) return out;
  k = std::min(k, keys.size());
  std::nth_element(keys.begin(), keys.begin() + static_cast<long>(k) - 1,
                   keys.end(), std::greater<>());
  out.idx.resize(k);
  for (size_t i = 0; i < k; ++i) out.idx[i] = ~static_cast<uint32_t>(keys[i]);
  std::sort(out.idx.begin(), out.idx.end());
  out.val.resize(k);
  for (size_t i = 0; i < k; ++i) out.val[i] = x[out.idx[i]];
  return out;
}

}  // namespace

SparseVec top_k_abs(const float* x, size_t n, size_t k) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = magnitude_key(x, static_cast<uint32_t>(i));
  }
  return select_from(std::move(keys), x, k);
}

SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed) {
  GLUEFL_CHECK(allowed.size() == n);
  std::vector<uint64_t> keys;
  keys.reserve(allowed.count());
  allowed.for_each_set([&keys, x](size_t i) {
    keys.push_back(magnitude_key(x, static_cast<uint32_t>(i)));
  });
  return select_from(std::move(keys), x, k);
}

SparseVec gather(const float* x, const BitMask& mask) {
  SparseVec out;
  out.idx.reserve(mask.count());
  mask.for_each_set(
      [&out](size_t i) { out.idx.push_back(static_cast<uint32_t>(i)); });
  out.val.resize(out.idx.size());
  for (size_t i = 0; i < out.idx.size(); ++i) out.val[i] = x[out.idx[i]];
  return out;
}

void scatter_add(const SparseVec& s, float scale, float* out) {
  for (size_t i = 0; i < s.idx.size(); ++i) {
    out[s.idx[i]] += scale * s.val[i];
  }
}

void keep_only(const SparseVec& s, float* x, size_t n) {
  // Walk the (sorted) kept indices, zeroing the gaps.
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (next < s.idx.size() && s.idx[next] == i) {
      ++next;
    } else {
      x[i] = 0.0f;
    }
  }
}

}  // namespace gluefl
