#include "nn/dense.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

namespace baffle {
namespace {

TEST(Dense, ShapesAndParamCount) {
  Dense layer(4, 3, Activation::kRelu);
  EXPECT_EQ(layer.in_dim(), 4u);
  EXPECT_EQ(layer.out_dim(), 3u);
  EXPECT_EQ(layer.num_params(), 4u * 3u + 3u);
}

TEST(Dense, RejectsZeroDims) {
  EXPECT_THROW(Dense(0, 3, Activation::kRelu), std::invalid_argument);
  EXPECT_THROW(Dense(3, 0, Activation::kRelu), std::invalid_argument);
}

TEST(Dense, InitWeightsNonZeroBiasZero) {
  Dense layer(8, 8, Activation::kRelu);
  Rng rng(1);
  layer.init_weights(rng);
  float norm = l2_norm(layer.weights().flat());
  EXPECT_GT(norm, 0.1f);
  for (float b : layer.bias()) EXPECT_EQ(b, 0.0f);
}

TEST(Dense, ForwardLinearIdentity) {
  Dense layer(2, 2, Activation::kIdentity);
  layer.weights().at(0, 0) = 1.0f;
  layer.weights().at(1, 1) = 1.0f;
  layer.bias() = {0.5f, -0.5f};
  Matrix x = Matrix::from_rows(1, 2, {2.0f, 3.0f});
  Matrix out;
  layer.forward_eval(x, out);
  EXPECT_EQ(out.at(0, 0), 2.5f);
  EXPECT_EQ(out.at(0, 1), 2.5f);
}

TEST(Dense, ForwardReluClampsNegatives) {
  Dense layer(1, 1, Activation::kRelu);
  layer.weights().at(0, 0) = 1.0f;
  layer.bias() = {-5.0f};
  Matrix x = Matrix::from_rows(1, 1, {2.0f});
  Matrix out;
  layer.forward_eval(x, out);
  EXPECT_EQ(out.at(0, 0), 0.0f);
}

TEST(Dense, ForwardRejectsWrongInputDim) {
  Dense layer(3, 2, Activation::kRelu);
  Matrix x(1, 4);
  Matrix out;
  EXPECT_THROW(layer.forward_eval(x, out), std::invalid_argument);
}

TEST(Dense, BackwardAtOverwritesGradients) {
  Dense layer(2, 1, Activation::kIdentity);
  layer.weights().at(0, 0) = 1.0f;
  layer.weights().at(1, 0) = 1.0f;
  Matrix x = Matrix::from_rows(1, 2, {3.0f, 4.0f});
  Matrix out;
  layer.forward_eval(x, out);
  Matrix dout = Matrix::from_rows(1, 1, {1.0f});
  layer.backward_at(x, out, dout, nullptr);
  // dW = xᵀ dout
  EXPECT_EQ(layer.weight_grad().at(0, 0), 3.0f);
  EXPECT_EQ(layer.weight_grad().at(1, 0), 4.0f);
  EXPECT_EQ(layer.bias_grad()[0], 1.0f);

  // A second backward replaces the first step's gradient instead of
  // adding to it, so no zeroing pass is needed between steps.
  Matrix dout2 = Matrix::from_rows(1, 1, {2.0f});
  layer.backward_at(x, out, dout2, nullptr);
  EXPECT_EQ(layer.weight_grad().at(0, 0), 6.0f);
  EXPECT_EQ(layer.weight_grad().at(1, 0), 8.0f);
  EXPECT_EQ(layer.bias_grad()[0], 2.0f);
}

TEST(Dense, BackwardComputesInputGradient) {
  Dense layer(2, 2, Activation::kIdentity);
  layer.weights().at(0, 0) = 2.0f;
  layer.weights().at(1, 1) = 3.0f;
  Matrix x = Matrix::from_rows(1, 2, {1.0f, 1.0f});
  Matrix out;
  layer.forward_eval(x, out);
  Matrix dout = Matrix::from_rows(1, 2, {1.0f, 1.0f});
  Matrix dx;
  layer.backward_at(x, out, dout, &dx);
  // dx = dout Wᵀ
  EXPECT_EQ(dx.at(0, 0), 2.0f);
  EXPECT_EQ(dx.at(0, 1), 3.0f);
}

TEST(Dense, BackwardShapeMismatchThrows) {
  Dense layer(2, 2, Activation::kIdentity);
  Matrix x = Matrix::from_rows(1, 2, {1.0f, 1.0f});
  Matrix out;
  layer.forward_eval(x, out);
  // dout wider than the layer's output.
  Matrix wide = Matrix::from_rows(1, 3, {1, 1, 1});
  EXPECT_THROW(layer.backward_at(x, out, wide, nullptr),
               std::invalid_argument);
  // dout batch differs from the input batch.
  Matrix tall = Matrix::from_rows(2, 2, {1, 1, 1, 1});
  EXPECT_THROW(layer.backward_at(x, out, tall, nullptr),
               std::invalid_argument);
  // input width differs from the layer's input.
  Matrix bad_x = Matrix::from_rows(1, 3, {1, 1, 1});
  Matrix dout = Matrix::from_rows(1, 2, {1, 1});
  EXPECT_THROW(layer.backward_at(bad_x, out, dout, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace baffle
