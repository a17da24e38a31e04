#pragma once
// Fully-connected layer: one training forward and one backward that
// reads the forward activations from caller-owned buffers. Inference
// runs through MultiModelEval, bit-identical to this forward.

#include "nn/activation.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace baffle {

class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Activation act);

  /// He/Glorot-style initialization (scaled by fan-in).
  void init_weights(Rng& rng);

  /// Computes out = act(x W + b), reusing out's storage. Caches
  /// nothing, so it is safe to call concurrently on a const layer.
  void forward_eval(const Matrix& x, Matrix& out) const;

  /// Given dL/d(out), OVERWRITES the grad buffers with dL/dW and dL/db
  /// and writes dL/dx into `dx` (skipped when dx == nullptr, i.e., for
  /// the first layer). `input` is this layer's input and `output` its
  /// activated output from forward_eval; `dout` is modified in place and
  /// `dx` storage is reused via resize.
  void backward_at(const Matrix& input, const Matrix& output, Matrix& dout,
                   Matrix* dx);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  Activation activation() const { return act_; }
  std::size_t num_params() const { return weights_.size() + bias_.size(); }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }
  Matrix& weight_grad() { return weight_grad_; }
  const Matrix& weight_grad() const { return weight_grad_; }
  std::vector<float>& bias_grad() { return bias_grad_; }
  const std::vector<float>& bias_grad() const { return bias_grad_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Activation act_;

  Matrix weights_;            // (in, out)
  std::vector<float> bias_;   // (out)
  Matrix weight_grad_;        // (in, out)
  std::vector<float> bias_grad_;
};

}  // namespace baffle
