#include "nn/batchnorm.h"

#include <cmath>

#include "common/check.h"

namespace gluefl {

BatchNorm1d::BatchNorm1d(int dim, float momentum, float eps)
    : dim_(dim), momentum_(momentum), eps_(eps) {
  GLUEFL_CHECK(dim > 0);
}

void BatchNorm1d::init_params(float* flat_params, Rng& /*rng*/) const {
  float* gamma = flat_params + params_.offset;
  float* beta = gamma + dim_;
  for (int j = 0; j < dim_; ++j) {
    gamma[j] = 1.0f;
    beta[j] = 0.0f;
  }
}

void BatchNorm1d::init_stats(float* flat_stats) const {
  float* mean = flat_stats + stats_.offset;
  float* var = mean + dim_;
  float* count = var + dim_;
  for (int j = 0; j < dim_; ++j) {
    mean[j] = 0.0f;
    var[j] = 1.0f;
  }
  count[0] = 0.0f;
}

namespace {

// The row kernels below run over the batch outer and the features inner,
// so the compiler vectorizes across features; __restrict tells it the
// buffers never overlap. Each per-feature sum still adds in ascending i
// and every element sees the same operations, in the same order, as a
// feature-at-a-time loop, so the results are bit-identical to it
// (DESIGN.md §7b).

// acc[j] += x[i, j].
void add_rows(const float* __restrict x, int bs, size_t dim,
              double* __restrict acc) {
  for (int i = 0; i < bs; ++i, x += dim) {
    for (size_t j = 0; j < dim; ++j) acc[j] += x[j];
  }
}

// acc[j] += (x[i, j] - mean[j])^2, in double.
void add_sq_dev_rows(const float* __restrict x, const double* __restrict mean,
                     int bs, size_t dim, double* __restrict acc) {
  for (int i = 0; i < bs; ++i, x += dim) {
    for (size_t j = 0; j < dim; ++j) {
      const double d = x[j] - mean[j];
      acc[j] += d * d;
    }
  }
}

// xhat = (x - mean) * istd and y = gamma * xhat + beta.
void normalize_train(const float* __restrict x, const float* __restrict mean,
                     const float* __restrict istd,
                     const float* __restrict gamma,
                     const float* __restrict beta, int bs, size_t dim,
                     float* __restrict xhat, float* __restrict y) {
  for (int i = 0; i < bs; ++i, x += dim, xhat += dim, y += dim) {
    for (size_t j = 0; j < dim; ++j) {
      const float xh = (x[j] - mean[j]) * istd[j];
      xhat[j] = xh;
      y[j] = gamma[j] * xh + beta[j];
    }
  }
}

// y = gamma * (x - mean) * istd + beta.
void normalize_eval(const float* __restrict x, const float* __restrict mean,
                    const float* __restrict istd,
                    const float* __restrict gamma,
                    const float* __restrict beta, int bs, size_t dim,
                    float* __restrict y) {
  for (int i = 0; i < bs; ++i, x += dim, y += dim) {
    for (size_t j = 0; j < dim; ++j) {
      y[j] = gamma[j] * (x[j] - mean[j]) * istd[j] + beta[j];
    }
  }
}

// sum_g[j] += g[i, j] and sum_gx[j] += g[i, j] * xhat[i, j], in double.
void add_grad_sums(const float* __restrict g, const float* __restrict xhat,
                   int bs, size_t dim, double* __restrict sum_g,
                   double* __restrict sum_gx) {
  for (int i = 0; i < bs; ++i, g += dim, xhat += dim) {
    for (size_t j = 0; j < dim; ++j) {
      sum_g[j] += g[j];
      sum_gx[j] += static_cast<double>(g[j]) * xhat[j];
    }
  }
}

// gin = c * (bs * g - sum_g - xhat * sum_gx).
void input_grad(const float* __restrict g, const float* __restrict xhat,
                const float* __restrict c, const float* __restrict sum_g,
                const float* __restrict sum_gx, int bs, size_t dim,
                float* __restrict gin) {
  const float fbs = static_cast<float>(bs);
  for (int i = 0; i < bs; ++i, g += dim, xhat += dim, gin += dim) {
    for (size_t j = 0; j < dim; ++j) {
      gin[j] = c[j] * (fbs * g[j] - sum_g[j] - xhat[j] * sum_gx[j]);
    }
  }
}

}  // namespace

void BatchNorm1d::forward(const float* flat_params, float* flat_stats,
                          const float* in, float* out, int bs, bool training) {
  const float* gamma = flat_params + params_.offset;
  const float* beta = gamma + dim_;
  float* run_mean = flat_stats + stats_.offset;
  float* run_var = run_mean + dim_;
  float* num_batches = run_var + dim_;
  const size_t dim = static_cast<size_t>(dim_);
  coef_.resize(2 * dim);
  float* mean = coef_.data();

  if (!training) {
    float* istd = mean + dim;  // the training cache inv_std_ stays intact
    for (size_t j = 0; j < dim; ++j) {
      istd[j] = 1.0f / std::sqrt(run_var[j] + eps_);
      mean[j] = run_mean[j];
    }
    normalize_eval(in, mean, istd, gamma, beta, bs, dim, out);
    return;
  }

  GLUEFL_CHECK_MSG(bs >= 2, "BatchNorm training requires batch size >= 2");
  xhat_.resize(static_cast<size_t>(bs) * dim);
  inv_std_.resize(dim);
  cached_bs_ = bs;
  sums_.assign(2 * dim, 0.0);
  double* sum = sums_.data();
  double* sq = sum + dim;
  add_rows(in, bs, dim, sum);
  for (size_t j = 0; j < dim; ++j) sum[j] /= bs;
  add_sq_dev_rows(in, sum, bs, dim, sq);
  for (size_t j = 0; j < dim; ++j) {
    const double var_biased = sq[j] / bs;
    const double var_unbiased = sq[j] / (bs - 1);
    inv_std_[j] = 1.0f / std::sqrt(static_cast<float>(var_biased) + eps_);
    mean[j] = static_cast<float>(sum[j]);
    run_mean[j] = (1.0f - momentum_) * run_mean[j] + momentum_ * mean[j];
    run_var[j] = (1.0f - momentum_) * run_var[j] +
                 momentum_ * static_cast<float>(var_unbiased);
  }
  normalize_train(in, mean, inv_std_.data(), gamma, beta, bs, dim,
                  xhat_.data(), out);
  num_batches[0] += 1.0f;
}

void BatchNorm1d::backward(const float* flat_params, const float* gout,
                           float* gin, float* flat_grads, int bs) {
  GLUEFL_CHECK_MSG(bs == cached_bs_, "backward batch differs from forward");
  const float* gamma = flat_params + params_.offset;
  float* ggamma = flat_grads + params_.offset;
  float* gbeta = ggamma + dim_;
  const size_t dim = static_cast<size_t>(dim_);

  sums_.assign(2 * dim, 0.0);
  double* sum_g = sums_.data();
  double* sum_gx = sum_g + dim;
  add_grad_sums(gout, xhat_.data(), bs, dim, sum_g, sum_gx);
  coef_.resize(3 * dim);
  float* c = coef_.data();
  float* sg = c + dim;
  float* sgx = sg + dim;
  for (size_t j = 0; j < dim; ++j) {
    sg[j] = static_cast<float>(sum_g[j]);
    sgx[j] = static_cast<float>(sum_gx[j]);
    ggamma[j] += sgx[j];
    gbeta[j] += sg[j];
    c[j] = gamma[j] * inv_std_[j] / static_cast<float>(bs);
  }
  if (gin != nullptr) {
    input_grad(gout, xhat_.data(), c, sg, sgx, bs, dim, gin);
  }
}

std::unique_ptr<Layer> BatchNorm1d::clone() const {
  auto l = std::make_unique<BatchNorm1d>(dim_, momentum_, eps_);
  l->bind(params_, stats_);
  return l;
}

}  // namespace gluefl
