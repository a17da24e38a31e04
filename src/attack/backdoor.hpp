#pragma once
// Attacker-side success metric.

#include "data/backdoor_data.hpp"
#include "nn/multi_eval.hpp"

namespace baffle {

/// Backdoor accuracy (Eq. 1): fraction of backdoor instances the model
/// assigns to the attacker's target class. Only the attacker can compute
/// this — defenders do not know X* — so it appears exclusively in the
/// evaluation harness, never inside the defense.
double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class);

/// As above, with the parameter and prediction scratch in `ws`.
double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class, MlpEvalWorkspace& ws);

/// Backdoor accuracy from `predictions` already made on the rows of
/// `backdoor_test`; the argument checks of backdoor_accuracy, plus one
/// prediction per row.
double backdoor_accuracy_of(const Dataset& backdoor_test,
                            std::span<const std::size_t> predictions,
                            int target_class);

}  // namespace baffle
