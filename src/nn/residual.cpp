#include "nn/residual.h"

#include "common/check.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/linear.h"

namespace gluefl {

ResidualBlock::ResidualBlock(int dim) : dim_(dim) {
  GLUEFL_CHECK(dim > 0);
  inner_.push_back(std::make_unique<Linear>(dim, dim));
  inner_.push_back(std::make_unique<BatchNorm1d>(dim));
  inner_.push_back(std::make_unique<ReLU>(dim));
  inner_.push_back(std::make_unique<Linear>(dim, dim));
  inner_.push_back(std::make_unique<BatchNorm1d>(dim));
}

size_t ResidualBlock::param_count() const {
  size_t n = 0;
  for (const auto& l : inner_) n += l->param_count();
  return n;
}

size_t ResidualBlock::stat_count() const {
  size_t n = 0;
  for (const auto& l : inner_) n += l->stat_count();
  return n;
}

void ResidualBlock::bind_children() {
  size_t po = params_.offset;
  size_t so = stats_.offset;
  for (auto& l : inner_) {
    l->bind({po, l->param_count()}, {so, l->stat_count()});
    po += l->param_count();
    so += l->stat_count();
  }
  GLUEFL_CHECK(po == params_.offset + params_.size);
  GLUEFL_CHECK(so == stats_.offset + stats_.size);
}

void ResidualBlock::init_params(float* flat_params, Rng& rng) const {
  for (const auto& l : inner_) l->init_params(flat_params, rng);
}

void ResidualBlock::init_stats(float* flat_stats) const {
  for (const auto& l : inner_) l->init_stats(flat_stats);
}

void ResidualBlock::forward(const float* flat_params, float* flat_stats,
                            const float* in, float* out, int bs,
                            bool training) {
  const size_t n = static_cast<size_t>(bs) * dim_;
  act_.resize(inner_.size() + 1);
  act_[0].assign(in, in + n);
  for (size_t i = 0; i < inner_.size(); ++i) {
    act_[i + 1].resize(n);
    inner_[i]->forward(flat_params, flat_stats, act_[i].data(),
                       act_[i + 1].data(), bs, training);
  }
  // out = ReLU(in + F(in))
  const std::vector<float>& f = act_.back();
  for (size_t i = 0; i < n; ++i) {
    const float v = in[i] + f[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
  if (training) {
    final_out_.assign(out, out + n);
    cached_bs_ = bs;
  }
}

void ResidualBlock::backward(const float* flat_params, const float* gout,
                             float* gin, float* flat_grads, int bs) {
  GLUEFL_CHECK_MSG(bs == cached_bs_, "backward batch differs from forward");
  const size_t n = static_cast<size_t>(bs) * dim_;
  gbuf_a_.resize(n);
  gbuf_b_.resize(n);
  // Through the final ReLU.
  relu_backward(final_out_.data(), gout, n, gbuf_a_.data());
  // Skip path contribution.
  if (gin != nullptr) {
    for (size_t i = 0; i < n; ++i) gin[i] = gbuf_a_[i];
  }
  // Residual path: reverse through the inner chain.
  float* g = gbuf_a_.data();
  float* gnext = gbuf_b_.data();
  for (size_t i = inner_.size(); i-- > 0;) {
    inner_[i]->backward(flat_params, g, gnext, flat_grads, bs);
    std::swap(g, gnext);
  }
  if (gin != nullptr) {
    for (size_t i = 0; i < n; ++i) gin[i] += g[i];
  }
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  auto b = std::make_unique<ResidualBlock>(dim_);
  b->bind(params_, stats_);
  b->bind_children();
  return b;
}

}  // namespace gluefl
