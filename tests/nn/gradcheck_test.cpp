// Numerical gradient check: the single most load-bearing property of the
// NN substrate. Backprop gradients must match central finite differences
// of the loss for every parameter, across architectures and activations.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

// Holds no pointers: gtest prints the parameter as a byte dump into the
// test name, so a heap address here would change the name with ASLR on
// every build.
struct GradCheckCase {
  std::array<std::size_t, 4> layer_dims;  // zero-padded past the last layer
  Activation hidden_activation;
  std::uint32_t zero = 0;  // in place of tail padding, whose bytes vary

  MlpConfig config() const {
    MlpConfig c;
    for (std::size_t d : layer_dims) {
      if (d != 0) c.layer_dims.push_back(d);
    }
    c.hidden_activation = hidden_activation;
    return c;
  }
};

// Case names, in the order of the Values() list below.
constexpr const char* kCaseNames[] = {"linear",       "relu_1hidden",
                                      "tanh_1hidden", "relu_2hidden",
                                      "tanh_2hidden", "wide_tanh"};

class GradCheck : public ::testing::TestWithParam<GradCheckCase> {};

double loss_at(Mlp& model, const std::vector<float>& params, const Matrix& x,
               const std::vector<int>& labels) {
  model.set_parameters(params);
  return softmax_cross_entropy_loss(model.forward(x), labels);
}

TEST_P(GradCheck, BackpropMatchesFiniteDifferences) {
  Mlp model(GetParam().config());
  Rng rng(1234);
  model.init(rng);

  const std::size_t batch = 5;
  Matrix x(batch, model.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  std::vector<int> labels(batch);
  for (auto& y : labels) {
    y = static_cast<int>(rng.uniform_int(
        0, static_cast<std::int64_t>(model.output_dim()) - 1));
  }

  // Analytic gradient.
  model.zero_grad();
  const Matrix logits = model.forward(x);
  LossResult loss = softmax_cross_entropy(logits, labels);
  model.backward(std::move(loss.dlogits));
  const std::vector<float> analytic = model.gradients();
  std::vector<float> params = model.parameters();

  // Central differences on a random subset of parameters (full sweep on
  // small nets, subsampled on bigger ones to keep the test fast).
  const double eps = 1e-3;
  const std::size_t stride = std::max<std::size_t>(1, params.size() / 120);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const float orig = params[i];
    params[i] = orig + static_cast<float>(eps);
    const double up = loss_at(model, params, x, labels);
    params[i] = orig - static_cast<float>(eps);
    const double down = loss_at(model, params, x, labels);
    params[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 5e-3) << "param " << i;
    ++checked;
  }
  EXPECT_GE(checked, std::min<std::size_t>(params.size(), 20));
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradCheck,
    ::testing::Values(
        GradCheckCase{{3, 2}, Activation::kRelu},
        GradCheckCase{{4, 8, 3}, Activation::kRelu},
        GradCheckCase{{4, 8, 3}, Activation::kTanh},
        GradCheckCase{{5, 8, 6, 4}, Activation::kRelu},
        GradCheckCase{{5, 8, 6, 4}, Activation::kTanh},
        GradCheckCase{{2, 16, 16, 2}, Activation::kTanh}),
    [](const auto& info) { return std::string(kCaseNames[info.index]); });

}  // namespace
}  // namespace baffle
