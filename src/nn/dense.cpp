#include "nn/dense.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/contracts.hpp"

namespace baffle {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      weights_(in_dim, out_dim),
      bias_(out_dim, 0.0f),
      weight_grad_(in_dim, out_dim),
      bias_grad_(out_dim, 0.0f) {
  BAFFLE_CHECK(in_dim > 0 && out_dim > 0,
               "layer dimensions must be positive");
}

void Dense::init_weights(Rng& rng) {
  // He initialization for ReLU, Glorot for the rest.
  const double fan_in = static_cast<double>(in_dim_);
  const double scale = act_ == Activation::kRelu
                           ? std::sqrt(2.0 / fan_in)
                           : std::sqrt(1.0 / fan_in);
  for (float& w : weights_.flat()) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
  std::fill(bias_.begin(), bias_.end(), 0.0f);
}

void Dense::forward_eval(const Matrix& x, Matrix& out) const {
  BAFFLE_CHECK(x.cols() == in_dim_, "input width must match the layer");
  out.resize(x.rows(), out_dim_);
  gemm_ab(x, weights_, out);
  add_row_bias(out, bias_);
  activation_forward(act_, out);
}

void Dense::backward_at(const Matrix& input, const Matrix& output,
                        Matrix& dout, Matrix* dx) {
  BAFFLE_CHECK(dout.rows() == input.rows() && dout.cols() == out_dim_ &&
                   input.cols() == in_dim_,
               "gradient/input shapes must match the layer and batch");
  activation_backward(act_, output, dout);
  // dW = xᵀ dout; db = colsum(dout); dx = dout Wᵀ. The GEMM kernels and
  // col_sum zero-fill their outputs, so the grad buffers need no
  // separate zeroing pass.
  gemm_atb(input, dout, weight_grad_);
  col_sum(dout, bias_grad_);
  if (dx != nullptr) {
    dx->resize(dout.rows(), in_dim_);
    gemm_abt(dout, weights_, *dx);
  }
}

}  // namespace baffle
