// Top-k-by-magnitude selection — the sparsification primitive shared by
// STC (client and server side) and GlueFL's unique-gradient component.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/bitmask.h"

namespace gluefl {

/// Sparse vector: parallel arrays of (ascending) indices and values.
struct SparseVec {
  std::vector<uint32_t> idx;
  std::vector<float> val;

  size_t nnz() const { return idx.size(); }
};

/// Selects the k entries of x[0..n) with the largest |value|.
/// Ties are broken toward the lower index, making the result fully
/// deterministic; NaNs rank above every magnitude, +inf included.
/// Indices are returned in ascending order.
SparseVec top_k_abs(const float* x, size_t n, size_t k);

/// Same, but only positions where `allowed.test(i)` may be selected
/// (used for GlueFL's top over the complement of the shared mask).
SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed);

/// Gathers x at the set positions of `mask` into a SparseVec.
SparseVec gather(const float* x, const BitMask& mask);

/// out[idx[i]] += scale * val[i].
void scatter_add(const SparseVec& s, float scale, float* out);

/// Zeroes every coordinate of x not selected in s (i.e. x <- mask(x)).
void keep_only(const SparseVec& s, float* x, size_t n);

}  // namespace gluefl
