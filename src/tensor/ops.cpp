#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

namespace gluefl {

void axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void fill(float* x, size_t n, float v) {
  std::fill(x, x + n, v);
}

double dot(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

double sqnorm(const float* x, size_t n) { return dot(x, x, n); }

void add_row_bias(const float* bias, float* x, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* xi = x + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) xi[j] += bias[j];
  }
}

void softmax_rows(float* x, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* xi = x + static_cast<size_t>(i) * n;
    float mx = xi[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, xi[j]);
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      xi[j] = std::exp(xi[j] - mx);
      sum += xi[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < n; ++j) xi[j] *= inv;
  }
}

}  // namespace gluefl
