#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include "nn/multi_eval.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

MlpConfig small_config() {
  return MlpConfig{{4, 6, 3}, Activation::kRelu};
}

TEST(Mlp, ParamCountMatchesLayers) {
  Mlp model(small_config());
  EXPECT_EQ(model.num_params(), (4u * 6 + 6) + (6u * 3 + 3));
  EXPECT_EQ(model.input_dim(), 4u);
  EXPECT_EQ(model.output_dim(), 3u);
}

TEST(Mlp, RejectsTooFewDims) {
  EXPECT_THROW(Mlp(MlpConfig{{4}, Activation::kRelu}), std::invalid_argument);
}

TEST(Mlp, LastLayerIsLinear) {
  Mlp model(small_config());
  EXPECT_EQ(model.layers().back().activation(), Activation::kIdentity);
  EXPECT_EQ(model.layers().front().activation(), Activation::kRelu);
}

TEST(Mlp, ParameterRoundTrip) {
  Mlp model(small_config());
  Rng rng(1);
  model.init(rng);
  const auto params = model.parameters();
  ASSERT_EQ(params.size(), model.num_params());

  Mlp other(small_config());
  other.set_parameters(params);
  EXPECT_EQ(other.parameters(), params);
}

TEST(Mlp, SetParametersSizeMismatchThrows) {
  Mlp model(small_config());
  EXPECT_THROW(model.set_parameters(std::vector<float>(3)),
               std::invalid_argument);
}

TEST(Mlp, IdenticalParamsGiveIdenticalOutputs) {
  Mlp a(small_config()), b(small_config());
  Rng rng(2);
  a.init(rng);
  b.set_parameters(a.parameters());
  Rng data_rng(3);
  Matrix x(5, 4);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal());
  TrainWorkspace wa, wb;
  const Matrix& ya = a.forward_train(x, wa);
  const Matrix& yb = b.forward_train(x, wb);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.flat()[i], yb.flat()[i]);
  }
}

TEST(Mlp, AddToParametersShiftsFlatVector) {
  Mlp model(small_config());
  Rng rng(4);
  model.init(rng);
  const auto before = model.parameters();
  std::vector<float> delta(model.num_params(), 0.25f);
  model.add_to_parameters(delta);
  const auto after = model.parameters();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(after[i], before[i] + 0.25f);
  }
}

TEST(Mlp, AddToParametersSizeMismatchThrows) {
  Mlp model(small_config());
  EXPECT_THROW(model.add_to_parameters(std::vector<float>(2)),
               std::invalid_argument);
}

TEST(Mlp, PredictReturnsArgmaxClass) {
  // Construct a linear model that always prefers class 2.
  Mlp model(MlpConfig{{2, 3}, Activation::kRelu});
  std::vector<float> params(model.num_params(), 0.0f);
  params[model.num_params() - 1] = 10.0f;  // bias of class 2
  model.set_parameters(params);
  Matrix x(4, 2, 1.0f);
  MlpEvalWorkspace ws;
  for (std::size_t p : predict_once(model, x, ws)) EXPECT_EQ(p, 2u);
}

TEST(Mlp, GradientsSizeMatchesParams) {
  Mlp model(small_config());
  Rng rng(5);
  model.init(rng);
  Matrix x(3, 4, 0.5f);
  TrainWorkspace ws;
  model.forward_train(x, ws);
  ws.dlogits = Matrix(3, 3, 1.0f);
  model.backward_train(x, ws);
  std::vector<float> grad(model.num_params());
  EXPECT_NO_THROW(model.gradients_into(grad));
  std::vector<float> short_grad(2);
  EXPECT_THROW(model.gradients_into(short_grad), std::invalid_argument);
}

TEST(Mlp, BackwardTrainOverwritesStaleGradients) {
  // backward_train replaces every layer's gradient, so a step never sees
  // the previous batch's gradient: the same batch gives the same
  // gradient whatever ran before it.
  Mlp model(small_config());
  Rng rng(6);
  model.init(rng);
  const Matrix x(2, 4, 1.0f);
  TrainWorkspace ws;
  model.forward_train(x, ws);
  ws.dlogits = Matrix(2, 3, 1.0f);
  model.backward_train(x, ws);
  std::vector<float> first(model.num_params());
  model.gradients_into(first);

  const Matrix other(2, 4, -3.0f);
  model.forward_train(other, ws);
  ws.dlogits = Matrix(2, 3, 0.5f);
  model.backward_train(other, ws);
  model.forward_train(x, ws);
  ws.dlogits = Matrix(2, 3, 1.0f);
  model.backward_train(x, ws);
  std::vector<float> again(model.num_params());
  model.gradients_into(again);
  EXPECT_EQ(again, first);
}

TEST(Mlp, BackwardTrainWithoutForwardThrows) {
  Mlp model(small_config());
  Rng rng(8);
  model.init(rng);
  const Matrix x(2, 4, 1.0f);
  TrainWorkspace ws;
  ws.dlogits = Matrix(2, 3, 1.0f);
  EXPECT_THROW(model.backward_train(x, ws), std::logic_error);
}

TEST(Mlp, DeepNetworkForwardShape) {
  Mlp model(MlpConfig{{8, 16, 16, 8, 5}, Activation::kTanh});
  Rng rng(7);
  model.init(rng);
  Matrix x(10, 8, 0.1f);
  TrainWorkspace ws;
  const Matrix& y = model.forward_train(x, ws);
  EXPECT_EQ(y.rows(), 10u);
  EXPECT_EQ(y.cols(), 5u);
}

}  // namespace
}  // namespace baffle
