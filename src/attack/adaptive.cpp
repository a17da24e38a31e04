#include "attack/adaptive.hpp"

#include <stdexcept>

#include "nn/multi_eval.hpp"
#include "tensor/ops.hpp"

namespace baffle {

std::optional<AdaptiveUpdate> craft_adaptive_update(
    const Mlp& global, const Dataset& attacker_clean,
    const Dataset& backdoor_pool, const AdaptiveAttackConfig& config,
    const AttackerSideCheck& self_check, Rng& rng) {
  TrainWorkspace ws;
  return craft_adaptive_update(global, attacker_clean, backdoor_pool, config,
                               self_check, rng, ws);
}

std::optional<AdaptiveUpdate> craft_adaptive_update(
    const Mlp& global, const Dataset& attacker_clean,
    const Dataset& backdoor_pool, const AdaptiveAttackConfig& config,
    const AttackerSideCheck& self_check, Rng& rng, TrainWorkspace& ws) {
  if (!self_check) {
    throw std::invalid_argument("craft_adaptive_update: no self check");
  }
  if (config.alpha_step <= 0.0 || config.min_alpha <= 0.0) {
    throw std::invalid_argument("craft_adaptive_update: bad alpha grid");
  }

  // Stealth training. With behavior cloning the clean blend carries the
  // GLOBAL MODEL'S predicted labels: the local model then reproduces
  // G's error profile on the attacker's data (variation point ≈ 0 in
  // the attacker's own VALIDATE) while the relabelled backdoor samples
  // teach the adversarial sub-task.
  Dataset clean_view = attacker_clean;
  if (config.clone_global_behavior && !attacker_clean.empty()) {
    MlpEvalWorkspace eval_ws;
    const auto preds =
        predict_once(global, attacker_clean.features(), eval_ws);
    Dataset cloned(attacker_clean.dim(), attacker_clean.num_classes());
    for (std::size_t i = 0; i < attacker_clean.size(); ++i) {
      Example ex = attacker_clean[i];
      ex.y = static_cast<int>(preds[i]);
      cloned.add(std::move(ex));
    }
    clean_view = std::move(cloned);
  }
  const Dataset poisoned = make_poisoned_training_set(
      clean_view, backdoor_pool, config.replacement.task,
      config.replacement.poison_fraction, rng);
  Mlp local = global;
  train_sgd(local, poisoned.features(), poisoned.labels(),
            config.replacement.train, rng, ws);
  if (config.cleanup_epochs > 0 && !clean_view.empty()) {
    TrainConfig cleanup = config.replacement.train;
    cleanup.epochs = config.cleanup_epochs;
    train_sgd(local, clean_view.features(), clean_view.labels(), cleanup,
              rng, ws);
  }
  const ParamVec direction =
      subtract(local.parameters(), global.parameters());

  // Scale-back search: largest α whose predicted global model passes the
  // attacker's own validation.
  for (double alpha = 1.0; alpha >= config.min_alpha - 1e-9;
       alpha -= config.alpha_step) {
    ParamVec predicted = global.parameters();
    axpy(static_cast<float>(alpha), direction, predicted);
    if (self_check(predicted)) {
      AdaptiveUpdate out;
      out.update = direction;
      scale(out.update,
            static_cast<float>(config.replacement.boost * alpha));
      out.alpha = alpha;
      out.self_passed = true;
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace baffle
