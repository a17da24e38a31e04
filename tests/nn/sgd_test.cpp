#include "nn/sgd.hpp"

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

MlpConfig tiny() { return MlpConfig{{2, 2}, Activation::kRelu}; }

/// Puts a known gradient into the model by running a forward/backward.
void set_unit_gradient(Mlp& model, TrainWorkspace& ws) {
  const Matrix x(1, 2, 1.0f);
  model.forward_train(x, ws);
  ws.dlogits = Matrix(1, 2, 1.0f);
  model.backward_train(x, ws);
}

std::vector<float> gradients_of(const Mlp& model) {
  std::vector<float> grad(model.num_params());
  model.gradients_into(grad);
  return grad;
}

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(Sgd(4, SgdConfig{.learning_rate = 0.0f}),
               std::invalid_argument);
  EXPECT_THROW(Sgd(4, SgdConfig{.learning_rate = 0.1f, .momentum = 1.0f}),
               std::invalid_argument);
}

TEST(Sgd, StepMovesAgainstGradient) {
  Mlp model(tiny());
  std::vector<float> zero(model.num_params(), 0.0f);
  model.set_parameters(zero);
  TrainWorkspace ws;
  set_unit_gradient(model, ws);
  const auto grad = gradients_of(model);

  Sgd opt(model.num_params(), SgdConfig{.learning_rate = 0.5f});
  opt.step(model, ws);
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_FLOAT_EQ(params[i], -0.5f * grad[i]);
  }
}

TEST(Sgd, MomentumAcceleratesRepeatedSteps) {
  Mlp plain_model(tiny()), mom_model(tiny());
  std::vector<float> zero(plain_model.num_params(), 0.0f);
  plain_model.set_parameters(zero);
  mom_model.set_parameters(zero);

  Sgd plain(plain_model.num_params(), SgdConfig{.learning_rate = 0.1f});
  Sgd mom(mom_model.num_params(),
          SgdConfig{.learning_rate = 0.1f, .momentum = 0.9f});
  TrainWorkspace ws;
  for (int i = 0; i < 3; ++i) {
    set_unit_gradient(plain_model, ws);
    plain.step(plain_model, ws);
    set_unit_gradient(mom_model, ws);
    mom.step(mom_model, ws);
  }
  // With a persistent gradient direction, momentum must travel farther.
  EXPECT_GT(l2_norm(mom_model.parameters()),
            l2_norm(plain_model.parameters()));
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Mlp model(tiny());
  std::vector<float> ones(model.num_params(), 1.0f);
  model.set_parameters(ones);
  // A fresh model's gradient buffers are zero: only decay acts.
  ASSERT_EQ(l2_norm(gradients_of(model)), 0.0f);
  Sgd opt(model.num_params(),
          SgdConfig{.learning_rate = 0.1f, .weight_decay = 0.5f});
  TrainWorkspace ws;
  opt.step(model, ws);
  for (float p : model.parameters()) EXPECT_NEAR(p, 1.0f - 0.05f, 1e-6f);
}

TEST(Sgd, GradClipBoundsStepSize) {
  Mlp model(tiny());
  std::vector<float> zero(model.num_params(), 0.0f);
  model.set_parameters(zero);
  TrainWorkspace ws;
  set_unit_gradient(model, ws);
  Sgd opt(model.num_params(),
          SgdConfig{.learning_rate = 1.0f, .grad_clip = 0.01f});
  opt.step(model, ws);
  EXPECT_LE(l2_norm(model.parameters()), 0.01f + 1e-6f);
}

TEST(Sgd, ModelSizeMismatchThrows) {
  Mlp model(tiny());
  Sgd opt(model.num_params() + 1, SgdConfig{});
  TrainWorkspace ws;
  set_unit_gradient(model, ws);
  EXPECT_THROW(opt.step(model, ws), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
