#pragma once
// Softmax cross-entropy loss with fused gradient.

#include <span>

#include "tensor/matrix.hpp"

namespace baffle {

/// Returns the mean softmax cross-entropy of `logits` against integer
/// `labels` and writes the gradient dL/dlogits = (softmax - onehot) /
/// batch into a caller-owned buffer (storage reused via resize).
/// Allocation-free once `dlogits` is warm.
double softmax_cross_entropy_into(const Matrix& logits,
                                  std::span<const int> labels,
                                  Matrix& dlogits);

/// Loss only (no gradient), computed unfused — the reference the fused
/// variant is checked against.
double softmax_cross_entropy_loss(const Matrix& logits,
                                  std::span<const int> labels);

}  // namespace baffle
