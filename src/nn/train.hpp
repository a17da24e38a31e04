#pragma once
// Mini-batch SGD training loop over raw (features, labels) arrays.
// Dataset <-> Matrix conversion lives in src/data; keeping the loop at
// this level avoids a dependency cycle and lets tests drive it directly.

#include <span>

#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "util/rng.hpp"

namespace baffle {

struct TrainConfig {
  std::size_t epochs = 2;      // paper: 2 local epochs
  std::size_t batch_size = 32;
  SgdConfig sgd;
};

struct TrainStats {
  double final_loss = 0.0;   // mean loss over the last epoch
  std::size_t steps = 0;
};

/// Trains `model` in place. `x` has one sample per row; `labels` are the
/// matching integer classes. Batch order is reshuffled per epoch with
/// `rng`.
TrainStats train_sgd(Mlp& model, const Matrix& x, std::span<const int> labels,
                     const TrainConfig& config, Rng& rng);

/// As above but with caller-owned scratch: batch gather, activations,
/// loss gradient and optimizer buffers all live in `ws`, so the per-step
/// loop performs zero heap allocations once the workspace is warm.
/// Bit-identical to the allocating overload.
TrainStats train_sgd(Mlp& model, const Matrix& x, std::span<const int> labels,
                     const TrainConfig& config, Rng& rng, TrainWorkspace& ws);

/// Fraction of rows of `x` classified as `labels` — the empirical
/// accuracy acc_D(f) of Section II-A (0 for an empty `x`).
double evaluate_accuracy(const Mlp& model, const Matrix& x,
                         std::span<const int> labels);

}  // namespace baffle
