#include "nn/mlp.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  if (config.layer_dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  const std::size_t n_layers = config.layer_dims.size() - 1;
  layers_.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    const bool is_last = (i + 1 == n_layers);
    layers_.emplace_back(config.layer_dims[i], config.layer_dims[i + 1],
                         is_last ? Activation::kIdentity
                                 : config.hidden_activation);
    num_params_ += layers_.back().num_params();
  }
}

void Mlp::init(Rng& rng) {
  for (auto& layer : layers_) layer.init_weights(rng);
}

const Matrix& Mlp::forward_train(const Matrix& x, TrainWorkspace& ws) const {
  ws.acts.resize(layers_.size());
  layers_.front().forward_eval(x, ws.acts.front());
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    layers_[i].forward_eval(ws.acts[i - 1], ws.acts[i]);
  }
  return ws.acts.back();
}

void Mlp::backward_train(const Matrix& x, TrainWorkspace& ws) {
  if (ws.acts.size() != layers_.size()) {
    throw std::logic_error("Mlp::backward_train: run forward_train first");
  }
  Matrix* dout = &ws.dlogits;
  Matrix* dx = &ws.dx;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const bool first = (i == 0);
    const Matrix& input = first ? x : ws.acts[i - 1];
    layers_[i].backward_at(input, ws.acts[i], *dout, first ? nullptr : dx);
    if (!first) std::swap(dout, dx);
  }
}

std::vector<float> Mlp::parameters() const {
  std::vector<float> flat;
  flat.reserve(num_params_);
  for (const auto& layer : layers_) {
    const auto w = layer.weights().flat();
    flat.insert(flat.end(), w.begin(), w.end());
    flat.insert(flat.end(), layer.bias().begin(), layer.bias().end());
  }
  return flat;
}

void Mlp::set_parameters(std::span<const float> flat) {
  if (flat.size() != num_params_) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    auto w = layer.weights().flat();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), w.size(),
                w.begin());
    pos += w.size();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                layer.bias().size(), layer.bias().begin());
    pos += layer.bias().size();
  }
}

void Mlp::parameters_into(std::span<float> out) const {
  if (out.size() != num_params_) {
    throw std::invalid_argument("Mlp::parameters_into: size mismatch");
  }
  std::size_t pos = 0;
  for (const auto& layer : layers_) {
    const auto w = layer.weights().flat();
    std::copy(w.begin(), w.end(), out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += w.size();
    std::copy(layer.bias().begin(), layer.bias().end(),
              out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += layer.bias().size();
  }
}

void Mlp::gradients_into(std::span<float> out) const {
  if (out.size() != num_params_) {
    throw std::invalid_argument("Mlp::gradients_into: size mismatch");
  }
  std::size_t pos = 0;
  for (const auto& layer : layers_) {
    const auto g = layer.weight_grad().flat();
    std::copy(g.begin(), g.end(), out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += g.size();
    std::copy(layer.bias_grad().begin(), layer.bias_grad().end(),
              out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += layer.bias_grad().size();
  }
}

void Mlp::add_to_parameters(std::span<const float> delta) {
  if (delta.size() != num_params_) {
    throw std::invalid_argument("Mlp::add_to_parameters: size mismatch");
  }
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    auto w = layer.weights().flat();
    axpy(1.0f, delta.subspan(pos, w.size()), w);
    pos += w.size();
    axpy(1.0f, delta.subspan(pos, layer.bias().size()), layer.bias());
    pos += layer.bias().size();
  }
}

}  // namespace baffle
