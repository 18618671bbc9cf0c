// BitMask / top-k / encoding / error-feedback / quantizer tests.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/encoding.h"
#include "compress/error_feedback.h"
#include "compress/quantizer.h"
#include "compress/topk.h"

namespace gluefl {
namespace {

TEST(BitMask, SetTestReset) {
  BitMask m(100);
  EXPECT_FALSE(m.test(7));
  m.set(7);
  EXPECT_TRUE(m.test(7));
  m.reset(7);
  EXPECT_FALSE(m.test(7));
}

TEST(BitMask, CountAndAny) {
  BitMask m(200);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.any());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(199);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_TRUE(m.any());
}

TEST(BitMask, SetAllRespectsDomain) {
  BitMask m(70);  // crosses a word boundary with padding
  m.set_all();
  EXPECT_EQ(m.count(), 70u);
  m.flip();
  EXPECT_EQ(m.count(), 0u);
}

TEST(BitMask, FlipIsComplement) {
  BitMask m(130);
  m.set(1);
  m.set(129);
  m.flip();
  EXPECT_EQ(m.count(), 128u);
  EXPECT_FALSE(m.test(1));
  EXPECT_TRUE(m.test(0));
}

TEST(BitMask, UnionIntersectAndNot) {
  BitMask a(64), b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  BitMask u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  BitMask i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
  BitMask d = a;
  d.and_not(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
  EXPECT_EQ(BitMask::intersection_count(a, b), 1u);
}

TEST(BitMask, DomainMismatchThrows) {
  BitMask a(10), b(11);
  EXPECT_THROW(a |= b, CheckError);
}

TEST(BitMask, IndicesRoundTrip) {
  const std::vector<uint32_t> idx{0, 5, 63, 64, 99};
  const BitMask m = BitMask::from_indices(100, idx);
  EXPECT_EQ(m.to_indices(), idx);
}

TEST(BitMask, ForEachSetAscending) {
  BitMask m(128);
  m.set(100);
  m.set(3);
  m.set(64);
  std::vector<size_t> seen;
  m.for_each_set([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 64, 100}));
}

TEST(BitMask, WireBytes) {
  EXPECT_EQ(BitMask(8).wire_bytes(), 1u);
  EXPECT_EQ(BitMask(9).wire_bytes(), 2u);
  EXPECT_EQ(BitMask(1000).wire_bytes(), 125u);
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> x{0.1f, -5.0f, 2.0f, -0.3f, 4.0f};
  const SparseVec s = top_k_abs(x.data(), x.size(), 2);
  ASSERT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.idx[0], 1u);
  EXPECT_EQ(s.idx[1], 4u);
  EXPECT_FLOAT_EQ(s.val[0], -5.0f);
  EXPECT_FLOAT_EQ(s.val[1], 4.0f);
}

TEST(TopK, KZeroAndKBiggerThanN) {
  const std::vector<float> x{1.0f, 2.0f};
  EXPECT_EQ(top_k_abs(x.data(), 2, 0).nnz(), 0u);
  EXPECT_EQ(top_k_abs(x.data(), 2, 10).nnz(), 2u);
}

TEST(TopK, TieBreaksTowardLowerIndex) {
  const std::vector<float> x{1.0f, -1.0f, 1.0f, 1.0f};
  const SparseVec s = top_k_abs(x.data(), 4, 2);
  EXPECT_EQ(s.idx[0], 0u);
  EXPECT_EQ(s.idx[1], 1u);
}

TEST(TopK, MatchesSortReference) {
  Rng rng(21);
  std::vector<float> x(500);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const size_t k = 50;
  const SparseVec s = top_k_abs(x.data(), x.size(), k);
  // Reference: magnitude of the kept set >= magnitude of everything else.
  float min_kept = 1e30f;
  std::vector<bool> kept(x.size(), false);
  for (size_t i = 0; i < k; ++i) {
    min_kept = std::min(min_kept, std::fabs(s.val[i]));
    kept[s.idx[i]] = true;
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (!kept[i]) {
      EXPECT_LE(std::fabs(x[i]), min_kept + 1e-6f);
    }
  }
}

// Full sort by (|x| desc, index asc), first k, ascending: the selection
// order top_k_abs defines, on inputs without NaN.
std::vector<uint32_t> full_sort_top_k(const std::vector<float>& x,
                                      const std::vector<uint32_t>& cand,
                                      size_t k) {
  std::vector<uint32_t> order = cand;
  std::sort(order.begin(), order.end(), [&x](uint32_t a, uint32_t b) {
    const float ma = std::fabs(x[a]), mb = std::fabs(x[b]);
    return ma != mb ? ma > mb : a < b;
  });
  order.resize(std::min(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

TEST(TopK, EqualsFullSortOnTiesZerosAndDenormals) {
  Rng rng(22);
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> x(4000);
  for (auto& v : x) {
    const float sign = rng.uniform() < 0.5 ? -1.0f : 1.0f;
    switch (rng.uniform_int(0, 4)) {
      case 0: v = sign * 0.0f; break;
      case 1:
        v = sign * denorm * static_cast<float>(rng.uniform_int(1, 3));
        break;
      case 2: v = sign * 1.5f; break;  // many exact ties
      default: v = static_cast<float>(rng.normal());
    }
  }
  std::vector<uint32_t> all(x.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BitMask allowed(x.size());
  std::vector<uint32_t> odd;
  for (size_t i = 1; i < x.size(); i += 2) {
    allowed.set(i);
    odd.push_back(static_cast<uint32_t>(i));
  }
  for (size_t k : {1, 7, 100, 1500, 2500, 3999, 4000}) {
    const SparseVec s = top_k_abs(x.data(), x.size(), k);
    EXPECT_EQ(s.idx, full_sort_top_k(x, all, k)) << "k=" << k;
    for (size_t i = 0; i < s.nnz(); ++i) {
      EXPECT_EQ(std::memcmp(&s.val[i], &x[s.idx[i]], sizeof(float)), 0);
    }
    EXPECT_EQ(top_k_abs_masked(x.data(), x.size(), k, allowed).idx,
              full_sort_top_k(x, odd, k))
        << "masked k=" << k;
  }
}

// The packed-key selection the radix threshold select replaced, kept as
// the bitwise reference (DESIGN.md §7b): one unique key per candidate,
// |x| bits above ~index, nth_element, then an index sort. It defines the
// order for NaN too (above +inf, by bit pattern).
SparseVec reference_top_k(const std::vector<float>& x,
                          const std::vector<uint32_t>& cand, size_t k) {
  std::vector<uint64_t> keys;
  for (const uint32_t i : cand) {
    uint32_t bits;
    std::memcpy(&bits, &x[i], sizeof bits);
    keys.push_back((static_cast<uint64_t>(bits & 0x7fffffffu) << 32) | ~i);
  }
  SparseVec out;
  k = std::min(k, keys.size());
  if (k == 0) return out;
  std::nth_element(keys.begin(), keys.begin() + static_cast<long>(k) - 1,
                   keys.end(), std::greater<>());
  for (size_t j = 0; j < k; ++j) {
    out.idx.push_back(~static_cast<uint32_t>(keys[j]));
  }
  std::sort(out.idx.begin(), out.idx.end());
  for (const uint32_t i : out.idx) out.val.push_back(x[i]);
  return out;
}

void expect_same_selection(const SparseVec& got, const SparseVec& want) {
  ASSERT_EQ(got.idx, want.idx);
  ASSERT_EQ(got.val.size(), want.val.size());
  EXPECT_EQ(std::memcmp(got.val.data(), want.val.data(),
                        sizeof(float) * got.val.size()),
            0);
}

// Checks top_k_abs (all candidates) and top_k_abs_masked (those in
// `allowed`) against the reference at every k in `ks`.
void expect_matches_reference(const std::vector<float>& x,
                              const BitMask& allowed,
                              const std::vector<size_t>& ks) {
  std::vector<uint32_t> all(x.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  const std::vector<uint32_t> masked = allowed.to_indices();
  for (const size_t k : ks) {
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_same_selection(top_k_abs(x.data(), x.size(), k),
                          reference_top_k(x, all, k));
    expect_same_selection(top_k_abs_masked(x.data(), x.size(), k, allowed),
                          reference_top_k(x, masked, k));
  }
}

BitMask random_mask(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BitMask m(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.uniform() < density) m.set(i);
  }
  return m;
}

TEST(TopK, MaskedRandomMaskMatchesFullSort) {
  Rng rng(23);
  std::vector<float> x(33600);
  for (auto& v : x) {
    // Coarse values force ties across and inside histogram buckets.
    v = rng.uniform() < 0.3 ? static_cast<float>(rng.uniform_int(-8, 8))
                            : static_cast<float>(rng.normal());
  }
  for (const double density : {0.03, 0.5, 0.97}) {
    const BitMask allowed = random_mask(x.size(), density, 24);
    const std::vector<uint32_t> cand = allowed.to_indices();
    for (const size_t k : {size_t{1}, size_t{5}, size_t{1339}, cand.size()}) {
      EXPECT_EQ(top_k_abs_masked(x.data(), x.size(), k, allowed).idx,
                full_sort_top_k(x, cand, k))
          << "density=" << density << " k=" << k;
    }
    expect_matches_reference(x, allowed, {1, 1339, 3000, x.size()});
  }
}

TEST(TopK, AllEqualMagnitudesKeepLowestIndices) {
  std::vector<float> x(1000);
  for (size_t i = 0; i < x.size(); ++i) x[i] = i % 3 == 0 ? -0.25f : 0.25f;
  for (const size_t k : {size_t{1}, size_t{333}, size_t{999}}) {
    const SparseVec s = top_k_abs(x.data(), x.size(), k);
    ASSERT_EQ(s.nnz(), k);
    for (size_t i = 0; i < k; ++i) EXPECT_EQ(s.idx[i], i);
  }
  expect_matches_reference(x, random_mask(x.size(), 0.5, 25),
                           {1, 100, 500, 1000});
}

TEST(TopK, KOnHistogramBucketBoundary) {
  // Three groups of 100 magnitudes, each group inside one histogram bucket
  // (the top 12 magnitude bits: 8 exponent + 4 mantissa bits), so k = 100
  // and k = 200 end exactly on a bucket's last member and k = 101 / 201
  // start the next bucket.
  Rng rng(26);
  std::vector<float> x;
  for (const float lo : {8.0f, 2.0f, 0.5f}) {
    for (int i = 0; i < 100; ++i) {
      const float v = lo * (1.0f + static_cast<float>(rng.uniform()) / 32.0f);
      x.push_back(i % 2 == 0 ? v : -v);
    }
  }
  Rng shuffle_rng(27);
  shuffle_rng.shuffle(x);
  std::vector<uint32_t> all(x.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  for (const size_t k : {99, 100, 101, 199, 200, 201, 300}) {
    EXPECT_EQ(top_k_abs(x.data(), x.size(), k).idx, full_sort_top_k(x, all, k))
        << "k=" << k;
  }
  expect_matches_reference(x, random_mask(x.size(), 0.5, 28),
                           {99, 100, 101, 150, 200, 300});
}

TEST(TopK, KEqualsNKeepsEverythingInOrder) {
  const std::vector<float> x = {0.0f, -3.0f, 1.0f, -0.0f, 2.0f};
  const SparseVec s = top_k_abs(x.data(), x.size(), x.size());
  EXPECT_EQ(s.idx, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(std::memcmp(s.val.data(), x.data(), sizeof(float) * x.size()), 0);
  BitMask allowed(x.size());
  allowed.set(1);
  allowed.set(3);
  EXPECT_EQ(top_k_abs_masked(x.data(), x.size(), 2, allowed).idx,
            (std::vector<uint32_t>{1, 3}));
}

TEST(TopK, NanAndInfinityUnderMask) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(29);
  std::vector<float> x(5000);
  for (auto& v : x) {
    const double u = rng.uniform();
    v = u < 0.02 ? (u < 0.01 ? nan : -nan)
        : u < 0.05 ? (u < 0.035 ? inf : -inf)
                   : static_cast<float>(rng.normal());
  }
  const BitMask allowed = random_mask(x.size(), 0.6, 30);
  expect_matches_reference(x, allowed, {1, 10, 30, 80, 200, 2999, 5000});
  // The masked NaNs rank first, then the masked infinities.
  size_t nans = 0;
  allowed.for_each_set([&](size_t i) { nans += std::isnan(x[i]) ? 1 : 0; });
  const SparseVec s = top_k_abs_masked(x.data(), x.size(), nans, allowed);
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_TRUE(allowed.test(s.idx[i]));
    EXPECT_TRUE(std::isnan(s.val[i]));
  }
}

TEST(TopK, NanRanksAboveInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x{1.0f, -inf, 3.0f, -nan, inf, nan};
  const SparseVec one = top_k_abs(x.data(), x.size(), 1);
  ASSERT_EQ(one.nnz(), 1u);
  EXPECT_EQ(one.idx[0], 3u);  // the lower-index NaN; its sign is ignored
  EXPECT_TRUE(std::isnan(one.val[0]));
  EXPECT_EQ(top_k_abs(x.data(), x.size(), 3).idx,
            (std::vector<uint32_t>{1, 3, 5}));  // NaNs, then -inf
}

TEST(TopK, MaskedSelectionHonorsMask) {
  const std::vector<float> x{10.0f, 9.0f, 8.0f, 7.0f};
  BitMask allowed(4);
  allowed.set(2);
  allowed.set(3);
  const SparseVec s = top_k_abs_masked(x.data(), 4, 1, allowed);
  ASSERT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.idx[0], 2u);
}

TEST(TopK, MaskedWithFewerAllowedThanK) {
  const std::vector<float> x{1.0f, 2.0f, 3.0f};
  BitMask allowed(3);
  allowed.set(0);
  EXPECT_EQ(top_k_abs_masked(x.data(), 3, 5, allowed).nnz(), 1u);
}

TEST(TopK, GatherScatterRoundTrip) {
  const std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  BitMask m(4);
  m.set(1);
  m.set(3);
  const SparseVec s = gather(x.data(), m);
  ASSERT_EQ(s.nnz(), 2u);
  EXPECT_FLOAT_EQ(s.val[0], 2.0f);
  EXPECT_FLOAT_EQ(s.val[1], 4.0f);
  std::vector<float> out(4, 0.0f);
  scatter_add(s, 2.0f, out.data());
  EXPECT_FLOAT_EQ(out[1], 4.0f);
  EXPECT_FLOAT_EQ(out[3], 8.0f);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

TEST(TopK, KeepOnlyZeroesComplement) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  SparseVec s;
  s.idx = {1, 2};
  s.val = {2.0f, 3.0f};
  keep_only(s, x.data(), 4);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[1], 2.0f);
  EXPECT_FLOAT_EQ(x[2], 3.0f);
  EXPECT_FLOAT_EQ(x[3], 0.0f);
}

TEST(Encoding, PositionBytesVariants) {
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kBitmap), 100u);
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kIndices32), 40u);
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kAuto), 40u);
}

TEST(Encoding, AutoCrossoverAtDimOver32) {
  const size_t dim = 3200;
  // bitmap = 400 bytes; indices = 4*nnz. Crossover at nnz = 100.
  EXPECT_EQ(position_bytes(99, dim), 396u);
  EXPECT_EQ(position_bytes(101, dim), 400u);
}

TEST(Encoding, SparseAndDenseBytes) {
  EXPECT_EQ(dense_bytes(100), 400u);
  EXPECT_EQ(values_only_bytes(25), 100u);
  EXPECT_EQ(sparse_update_bytes(10, 800), 40u + 40u);
}

TEST(Encoding, NnzCannotExceedDim) {
  EXPECT_THROW(position_bytes(11, 10), CheckError);
}

TEST(ErrorFeedback, NoneModeIsInert) {
  ErrorFeedback ec(ErrorFeedback::Mode::kNone, 3);
  const std::vector<float> r{1.0f, 2.0f, 3.0f};
  ec.store(0, 1.0, r.data());
  std::vector<float> delta(3, 0.0f);
  ec.apply(0, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 0.0f);
  EXPECT_EQ(ec.num_tracked_clients(), 0u);
}

TEST(ErrorFeedback, RawModeAddsResidualUnscaled) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRaw, 2);
  const std::vector<float> r{1.0f, -1.0f};
  ec.store(5, 4.0, r.data());
  std::vector<float> delta{0.0f, 0.0f};
  ec.apply(5, 0.5, delta.data());  // weights ignored in raw mode
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
  EXPECT_FLOAT_EQ(delta[1], -1.0f);
}

TEST(ErrorFeedback, RescaledModeUsesWeightRatio) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRescaled, 2);
  const std::vector<float> r{2.0f, 4.0f};
  ec.store(7, 3.0, r.data());  // stored with nu = 3
  std::vector<float> delta{0.0f, 0.0f};
  ec.apply(7, 6.0, delta.data());  // now nu = 6 -> coef = 3/6 = 0.5
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
  EXPECT_FLOAT_EQ(delta[1], 2.0f);
}

TEST(ErrorFeedback, UnknownClientIsNoop) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRescaled, 2);
  std::vector<float> delta{1.0f, 1.0f};
  ec.apply(99, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
}

TEST(ErrorFeedback, StoreOverwrites) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRaw, 1);
  const float a = 1.0f;
  const float b = 5.0f;
  ec.store(0, 1.0, &a);
  ec.store(0, 1.0, &b);
  std::vector<float> delta{0.0f};
  ec.apply(0, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 5.0f);
  EXPECT_EQ(ec.num_tracked_clients(), 1u);
}

TEST(Quantizer, ValuesStayInRangeOnGrid) {
  Rng rng(31);
  UniformQuantizer q(4);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const float max_abs_before =
      std::fabs(*std::max_element(x.begin(), x.end(), [](float a, float b) {
        return std::fabs(a) < std::fabs(b);
      }));
  q.quantize(x.data(), x.size(), rng);
  for (float v : x) EXPECT_LE(std::fabs(v), max_abs_before + 1e-5f);
}

TEST(Quantizer, StochasticRoundingIsUnbiased) {
  Rng rng(33);
  UniformQuantizer q(2);
  const int trials = 4000;
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> x{0.3f, 1.0f};  // 1.0 pins the scale
    q.quantize(x.data(), 2, rng);
    sum += x[0];
  }
  EXPECT_NEAR(sum / trials, 0.3, 0.02);
}

TEST(Quantizer, PayloadBytes) {
  UniformQuantizer q8(8);
  EXPECT_EQ(q8.payload_bytes(100), 100u + 4u);
  UniformQuantizer q1(1);
  EXPECT_EQ(q1.payload_bytes(16), 2u + 4u);
}

TEST(Quantizer, ZeroVectorUnchanged) {
  Rng rng(35);
  UniformQuantizer q(8);
  std::vector<float> x(10, 0.0f);
  q.quantize(x.data(), x.size(), rng);
  for (float v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace gluefl
