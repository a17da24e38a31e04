#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace baffle {
namespace {

TEST(Loss, UniformLogitsGiveLogK) {
  const Matrix logits(4, 10, 0.0f);
  const std::vector<int> labels{0, 3, 5, 9};
  const double loss = softmax_cross_entropy_loss(logits, labels);
  EXPECT_NEAR(loss, std::log(10.0), 1e-6);
}

TEST(Loss, ConfidentCorrectPredictionLowLoss) {
  Matrix logits(1, 3, 0.0f);
  logits.at(0, 1) = 20.0f;
  const std::vector<int> labels{1};
  EXPECT_LT(softmax_cross_entropy_loss(logits, labels), 1e-6);
}

TEST(Loss, ConfidentWrongPredictionHighLoss) {
  Matrix logits(1, 3, 0.0f);
  logits.at(0, 0) = 20.0f;
  const std::vector<int> labels{1};
  EXPECT_GT(softmax_cross_entropy_loss(logits, labels), 10.0);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Matrix logits = Matrix::from_rows(2, 3, {1, 2, 3, -1, 0, 1});
  const std::vector<int> labels{0, 2};
  Matrix dlogits;
  softmax_cross_entropy_into(logits, labels, dlogits);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (float g : dlogits.row(r)) total += g;
    EXPECT_NEAR(total, 0.0f, 1e-6f);
  }
}

TEST(Loss, GradientIsSoftmaxMinusOneHotOverBatch) {
  Matrix logits(1, 2, 0.0f);  // softmax = (0.5, 0.5)
  const std::vector<int> labels{0};
  Matrix dlogits;
  softmax_cross_entropy_into(logits, labels, dlogits);
  EXPECT_NEAR(dlogits.at(0, 0), -0.5f, 1e-6f);
  EXPECT_NEAR(dlogits.at(0, 1), 0.5f, 1e-6f);
}

TEST(Loss, GradientScalesWithBatch) {
  Matrix logits(2, 2, 0.0f);
  const std::vector<int> labels{0, 0};
  Matrix dlogits;
  softmax_cross_entropy_into(logits, labels, dlogits);
  EXPECT_NEAR(dlogits.at(0, 0), -0.25f, 1e-6f);  // (0.5-1)/2
}

TEST(Loss, LossMatchesGradVariant) {
  Matrix logits = Matrix::from_rows(3, 4, {1, 2, 3, 4, 0, 0, 0, 0, -2, 5, 1, 1});
  const std::vector<int> labels{3, 1, 2};
  Matrix dlogits;
  EXPECT_NEAR(softmax_cross_entropy_into(logits, labels, dlogits),
              softmax_cross_entropy_loss(logits, labels), 1e-9);
}

TEST(Loss, LabelCountMismatchThrows) {
  Matrix logits(2, 3);
  const std::vector<int> labels{0};
  Matrix dlogits;
  EXPECT_THROW(softmax_cross_entropy_into(logits, labels, dlogits),
               std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy_loss(logits, labels),
               std::invalid_argument);
}

TEST(Loss, LabelOutOfRangeThrows) {
  Matrix logits(1, 3);
  Matrix dlogits;
  EXPECT_THROW(
      softmax_cross_entropy_into(logits, std::vector<int>{3}, dlogits),
      std::invalid_argument);
  EXPECT_THROW(
      softmax_cross_entropy_into(logits, std::vector<int>{-1}, dlogits),
      std::invalid_argument);
}

TEST(Loss, NumericallyStableForExtremeLogits) {
  Matrix logits = Matrix::from_rows(1, 2, {1000.0f, -1000.0f});
  const std::vector<int> labels{1};
  Matrix dlogits;
  const double loss = softmax_cross_entropy_into(logits, labels, dlogits);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(std::isfinite(dlogits.at(0, 0)));
}

}  // namespace
}  // namespace baffle
