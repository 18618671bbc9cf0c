#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>

#include "common/check.h"

namespace gluefl {

namespace {

// The 31 magnitude bits of x[i]. Non-negative floats order like their bit
// patterns, so a larger value means a larger |x[i]|; a NaN's magnitude
// bits exceed +inf's, so NaNs rank first instead of breaking the order.
uint32_t magnitude(const float* x, size_t i) {
  uint32_t bits;
  std::memcpy(&bits, x + i, sizeof bits);
  return bits & 0x7fffffffu;
}

// The histogram splits magnitudes on their top 12 bits.
constexpr int kBucketShift = 31 - 12;
constexpr uint32_t kBuckets = uint32_t{1} << 12;

// Selects the first k of `count` candidates under (magnitude desc, index
// asc), a strict order since indices are unique, and returns them in
// ascending index order. walk(f) calls f(i) on every candidate index in
// ascending order. Two walks: a histogram finds the bucket holding the
// k-th magnitude, then a gather keeps every candidate at or above that
// bucket, in index order. The exact threshold magnitude comes from the
// gathered boundary bucket; the output is everything above it plus the
// lowest-index ties at it.
template <typename Walk>
SparseVec select_from(const float* x, size_t count, size_t k, Walk&& walk) {
  SparseVec out;
  k = std::min(k, count);
  if (k == 0) return out;

  std::array<uint32_t, kBuckets> hist{};
  walk([&hist, x](size_t i) { ++hist[magnitude(x, i) >> kBucketShift]; });
  size_t above = 0;  // candidates in buckets above the boundary bucket
  uint32_t bucket = kBuckets - 1;
  while (above + hist[bucket] < k) above += hist[bucket--];

  // (magnitude << 32 | index) of every candidate in or above the bucket.
  std::vector<uint64_t> kept;
  kept.reserve(above + hist[bucket]);
  std::vector<uint32_t> boundary;  // magnitudes in the boundary bucket
  boundary.reserve(hist[bucket]);
  walk([&kept, &boundary, bucket, x](size_t i) {
    const uint32_t m = magnitude(x, i);
    if ((m >> kBucketShift) >= bucket) {
      kept.push_back(static_cast<uint64_t>(m) << 32 | i);
      if ((m >> kBucketShift) == bucket) boundary.push_back(m);
    }
  });
  const size_t need = k - above;  // 1 <= need <= boundary.size()
  std::nth_element(boundary.begin(),
                   boundary.begin() + static_cast<long>(need) - 1,
                   boundary.end(), std::greater<>());
  const uint32_t threshold = boundary[need - 1];
  size_t ties = need;  // how many candidates AT the threshold are kept
  for (const uint32_t m : boundary) ties -= m > threshold;

  out.idx.reserve(k);
  for (const uint64_t c : kept) {
    const uint32_t m = static_cast<uint32_t>(c >> 32);
    bool keep = m > threshold;
    if (m == threshold && ties > 0) {
      --ties;
      keep = true;
    }
    if (keep) out.idx.push_back(static_cast<uint32_t>(c));
  }
  out.val.resize(k);
  for (size_t j = 0; j < k; ++j) out.val[j] = x[out.idx[j]];
  return out;
}

}  // namespace

SparseVec top_k_abs(const float* x, size_t n, size_t k) {
  return select_from(x, n, k, [n](auto&& f) {
    for (size_t i = 0; i < n; ++i) f(i);
  });
}

SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed) {
  GLUEFL_CHECK(allowed.size() == n);
  return select_from(x, allowed.count(), k,
                     [&allowed](auto&& f) { allowed.for_each_set(f); });
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
