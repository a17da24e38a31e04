// Property-style parity of the incremental validation engine
// (DESIGN.md §12): a validator with cross-round caching (candidate-CM
// promotion, per-pair variation points, incremental distance matrix)
// must produce bit-identical votes/φ/τ to a fresh-recompute validator
// through arbitrary accept/reject/rollback sequences — while doing
// strictly fewer model evaluations.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "data/synth.hpp"

namespace baffle {
namespace {

/// Cheap non-degenerate model chain: random-walk parameter vectors.
/// Parity does not need trained models, only distinct per-class
/// errors per version.
class ParityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(404);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 25;
    cfg.test_per_class = 20;  // 200 samples; validators draw 120 below
    task_ = make_synth_task(cfg, rng);
    arch_ = MlpConfig{{cfg.dim, 16, cfg.num_classes}, Activation::kRelu};
    Mlp model(arch_);
    model.init(rng);
    params_ = model.parameters();
  }

  /// Next model on the random walk (a fresh "candidate").
  ParamVec next_params(Rng& rng, float step = 0.05f) {
    ParamVec out = params_;
    for (float& p : out) p += static_cast<float>(rng.normal(0.0, step));
    return out;
  }

  Validator make_validator(bool incremental, std::size_t lookback = 8,
                           std::size_t min_variations = 4) {
    Rng rng(9);
    ValidatorConfig cfg;
    cfg.lookback = lookback;
    cfg.min_variations = min_variations;
    cfg.incremental = incremental;
    return Validator(task_.test.sample(120, rng), arch_, cfg);
  }

  static void expect_same(const ValidationOutcome& a,
                          const ValidationOutcome& b) {
    EXPECT_EQ(a.vote, b.vote);
    EXPECT_EQ(a.phi, b.phi);  // bit-exact, not just approximately equal
    EXPECT_EQ(a.tau, b.tau);
    EXPECT_EQ(a.abstained, b.abstained);
  }

  SynthTask task_;
  MlpConfig arch_;
  ParamVec params_;  // current committed chain head
};

TEST_F(ParityFixture, AcceptRejectRollbackSequenceBitIdentical) {
  Validator incremental = make_validator(true);
  Validator fresh = make_validator(false);
  const std::size_t lookback = 8;

  std::deque<GlobalModel> window;
  std::uint64_t version = 0;
  window.push_back({version, params_});

  Rng rng(77);
  // Scripted round outcomes: warmup accepts (through the abstention
  // regime), then rejects — including consecutive ones — interleaved
  // with accepts so the window both shifts and stalls.
  const bool accept_script[] = {true, true,  true, true,  true,  true,
                                true, false, true, false, false, true,
                                true, false, true, true,  true,  true};
  std::size_t accepts = 0;
  std::size_t non_abstained = 0;
  for (bool accept : accept_script) {
    const std::vector<GlobalModel> history(window.begin(), window.end());
    const ParamVec candidate = next_params(rng);
    const auto inc = incremental.validate(candidate, history);
    const auto ref = fresh.validate(candidate, history);
    expect_same(inc, ref);
    if (!inc.abstained) ++non_abstained;
    if (accept) {
      ++version;
      window.push_back({version, candidate});
      while (window.size() > lookback + 1) window.pop_front();
      incremental.notify_commit(version, candidate);
      fresh.notify_commit(version, candidate);
      params_ = candidate;
      ++accepts;
    } else {
      // Rolled back: the window must behave as if the candidate never
      // existed (its pending evaluation is discarded).
      incremental.notify_reject();
      fresh.notify_reject();
    }
  }
  ASSERT_GT(accepts, lookback);     // window rotated through capacity
  ASSERT_GT(non_abstained, 6u);     // the LOF path actually ran

  // The incremental validator promoted committed candidates instead of
  // re-evaluating them as next round's history.back().
  EXPECT_GT(incremental.cache().promotions(), 0u);
  EXPECT_EQ(fresh.cache().promotions(), 0u);
  EXPECT_LT(incremental.cache().misses(), fresh.cache().misses());
}

TEST_F(ParityFixture, RepeatedValidationsSameRoundBitIdentical) {
  // The adaptive attacker's self-check validates many candidates per
  // round against the same window; only the last one may be promoted.
  Validator incremental = make_validator(true);
  Validator fresh = make_validator(false);
  const std::size_t lookback = 8;

  std::deque<GlobalModel> history;
  Rng rng(55);
  for (std::uint64_t v = 0; v <= lookback; ++v) {
    history.push_back({v, params_});
    params_ = next_params(rng);
  }
  // Both validators see the same ℓ+1-model window, slid forward on
  // each commit like ModelHistory::window.
  const auto validate_both = [&](const ParamVec& candidate) {
    const std::vector<GlobalModel> window(history.begin(), history.end());
    expect_same(incremental.validate(candidate, window),
                fresh.validate(candidate, window));
  };
  const auto commit = [&](std::uint64_t version, const ParamVec& params) {
    history.push_back({version, params});
    history.pop_front();
  };
  ParamVec last;
  for (int trial = 0; trial < 5; ++trial) {
    last = next_params(rng, 0.01f * static_cast<float>(trial + 1));
    validate_both(last);
  }
  // Committing a model that is NOT the last validated candidate must
  // not promote (parameters differ bit-wise from the pending ones).
  const ParamVec other = next_params(rng);
  incremental.notify_commit(9, other);
  EXPECT_EQ(incremental.cache().promotions(), 0u);

  commit(9, other);
  validate_both(last);

  // Committing exactly the last validated candidate does promote.
  incremental.notify_commit(10, last);
  EXPECT_EQ(incremental.cache().promotions(), 1u);
  commit(10, last);
  const ParamVec candidate = next_params(rng);
  const auto misses_before = incremental.cache().misses();
  validate_both(candidate);
  // The promoted version was needed as history.back() and hit.
  EXPECT_EQ(incremental.cache().misses(), misses_before);
}

TEST_F(ParityFixture, ZScoreAblationsSingleDeltaStayFinite) {
  // Regression: a 2-model history yields one delta; the z-score's
  // sample stddev path must not poison φ with NaN for either ablation.
  Rng rng(66);
  for (ValidationMethod method : {ValidationMethod::kGlobalAccuracyZScore,
                                  ValidationMethod::kVariationNormZScore}) {
    ValidatorConfig cfg;
    cfg.lookback = 2;
    cfg.min_variations = 1;
    cfg.method = method;
    Rng data_rng(9);
    Validator v(task_.test.sample(120, data_rng), arch_, cfg);
    std::vector<GlobalModel> history;
    history.push_back({0, params_});
    history.push_back({1, next_params(rng)});
    const auto outcome = v.validate(next_params(rng), history);
    EXPECT_FALSE(outcome.abstained);
    EXPECT_TRUE(std::isfinite(outcome.phi))
        << validation_method_name(method);
    EXPECT_EQ(outcome.vote, outcome.phi > outcome.tau ? 1 : 0);
  }
}

TEST_F(ParityFixture, LookbackSweepSizesBitIdentical) {
  // table1_lookback sizes: the incremental window must stay exact
  // through growth, saturation and rotation at every ℓ.
  for (std::size_t ell : {4u, 8u, 16u}) {
    SCOPED_TRACE(ell);
    Validator incremental = make_validator(true, ell);
    Validator fresh = make_validator(false, ell);
    std::deque<GlobalModel> window;
    std::uint64_t version = 0;
    window.push_back({version, params_});
    Rng rng(100 + ell);
    for (int round = 0; round < static_cast<int>(ell) + 6; ++round) {
      const std::vector<GlobalModel> history(window.begin(), window.end());
      const ParamVec candidate = next_params(rng);
      expect_same(incremental.validate(candidate, history),
                  fresh.validate(candidate, history));
      ++version;
      window.push_back({version, candidate});
      while (window.size() > ell + 1) window.pop_front();
      incremental.notify_commit(version, candidate);
      fresh.notify_commit(version, candidate);
      params_ = candidate;
    }
  }
}

}  // namespace
}  // namespace baffle
