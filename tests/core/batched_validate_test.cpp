// Validator-level parity of the batched multi-model evaluation engine
// (DESIGN.md §14).
//
// A cold-window validator routes every uncached history model through
// one MultiModelEval::predict_many pass; a warm validator that saw the
// same window grow round-by-round only ever evaluates one model at a
// time. Both must produce bit-identical votes/φ/τ — the batched pass is
// an execution-schedule change, not a numeric one.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "data/synth.hpp"
#include "metrics/confusion.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

class BatchedValidate : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(404);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 25;
    cfg.test_per_class = 20;
    task_ = make_synth_task(cfg, rng);
    arch_ = MlpConfig{{cfg.dim, 16, cfg.num_classes}, Activation::kRelu};
    Mlp model(arch_);
    model.init(rng);
    params_ = model.parameters();
    Rng data_rng(9);
    data_ = task_.test.sample(120, data_rng);
  }

  ParamVec next_params(Rng& rng, float step = 0.05f) {
    ParamVec out = params_;
    for (float& p : out) p += static_cast<float>(rng.normal(0.0, step));
    return out;
  }

  Validator make_validator(std::size_t lookback) {
    ValidatorConfig cfg;
    cfg.lookback = lookback;
    cfg.min_variations = 2;
    return Validator(data_, arch_, cfg);
  }

  static void expect_same(const ValidationOutcome& a,
                          const ValidationOutcome& b) {
    EXPECT_EQ(a.vote, b.vote);
    EXPECT_EQ(a.phi, b.phi);  // bit-exact, not just approximately equal
    EXPECT_EQ(a.tau, b.tau);
    EXPECT_EQ(a.abstained, b.abstained);
  }

  /// The cached record must hold exactly the off-diagonal row and
  /// column sums of an independently evaluated confusion matrix.
  static void expect_record_of(const ConfusionMatrix& cm,
                               const ClassErrors& errors) {
    const std::size_t classes = cm.num_classes();
    ASSERT_EQ(errors.num_classes(), classes);
    ASSERT_EQ(errors.total, cm.total());
    for (std::size_t y = 0; y < classes; ++y) {
      std::size_t source = 0, target = 0;
      for (std::size_t o = 0; o < classes; ++o) {
        if (o == y) continue;
        source += cm.count(static_cast<int>(y), static_cast<int>(o));
        target += cm.count(static_cast<int>(o), static_cast<int>(y));
      }
      ASSERT_EQ(errors.source_misses[y], source) << "class " << y;
      ASSERT_EQ(errors.target_false[y], target) << "class " << y;
    }
  }

  SynthTask task_;
  MlpConfig arch_;
  ParamVec params_;
  Dataset data_;
};

TEST_F(BatchedValidate, ColdWindowBatchedMatchesWarmSequential) {
  // The warm validator sees the window grow one model per round, so its
  // prefetch never finds ≥2 uncached models and evaluates one model at
  // a time. The cold validator receives the
  // full window at once and batches it. Same inputs, same bits out.
  for (std::size_t ell : {std::size_t{2}, std::size_t{10}, std::size_t{40}}) {
    SCOPED_TRACE(ell);
    Validator warm = make_validator(ell);
    std::deque<GlobalModel> window;
    std::uint64_t version = 0;
    window.push_back({version, params_});
    Rng rng(100 + ell);
    ValidationOutcome warm_out;
    std::vector<GlobalModel> history;
    ParamVec candidate;
    for (std::size_t round = 0; round < ell + 4; ++round) {
      history.assign(window.begin(), window.end());
      candidate = next_params(rng);
      warm_out = warm.validate(candidate, history);
      ++version;
      window.push_back({version, candidate});
      while (window.size() > ell + 1) window.pop_front();
      warm.notify_commit(version, candidate);
      params_ = candidate;
    }

    Validator cold = make_validator(ell);
    const auto batched_before =
        MetricsRegistry::global().counter("validator.batched_evals");
    const auto cold_out = cold.validate(candidate, history);
    expect_same(warm_out, cold_out);
    if (ell >= 10) {
      EXPECT_FALSE(cold_out.abstained);
    }
    // The cold window really went through predict_many, and the
    // out-of-band deposits kept miss accounting identical to the
    // sequential path: one miss per window model (the candidate eval is
    // not a cache miss, and re-lookups of deposited entries are hits).
    EXPECT_GT(MetricsRegistry::global().counter("validator.batched_evals"),
              batched_before);
    EXPECT_EQ(cold.cache().misses(), history.size());
  }
}

TEST_F(BatchedValidate, BatchedCmsBitIdenticalToDirectEvaluation) {
  // Every record the batched prefetch deposited must equal the counts
  // of a plain per-model evaluate_confusion on the same dataset.
  const std::size_t ell = 10;
  Validator v = make_validator(ell);
  std::vector<GlobalModel> history;
  Rng rng(55);
  for (std::uint64_t ver = 0; ver <= ell; ++ver) {
    history.push_back({ver, params_});
    params_ = next_params(rng);
  }
  const ParamVec candidate = next_params(rng);
  const auto outcome = v.validate(candidate, history);
  EXPECT_FALSE(outcome.abstained);

  Mlp model(arch_);
  MlpEvalWorkspace ws;
  for (const auto& entry : history) {
    const ClassErrors* cached = v.cache().find(entry.version);
    ASSERT_NE(cached, nullptr) << "version " << entry.version;
    model.set_parameters(entry.params);
    expect_record_of(evaluate_confusion(model, data_, ws), *cached);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(BatchedValidate, ParallelEvalParityAcrossRoundsAndArms) {
  // Thread placement must never reach a vote (DESIGN.md §17): the same
  // rounds validated on pinned pools of 1 (the serial reference), 2, 3
  // and 4 workers must give bit-identical votes, φ, τ, abstentions and
  // cached records. The forced-scalar CI leg covers the
  // other dispatch arm.
  const std::size_t ell = 10;
  const std::size_t pool_sizes[] = {1, 2, 3, 4};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<Validator> validators;
  for (const std::size_t workers : pool_sizes) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
    const GlobalPoolPin pin(*pools.back());
    validators.push_back(make_validator(ell));
  }
  const Validator& ser = validators.front();

  std::deque<GlobalModel> window;
  std::uint64_t version = 0;
  window.push_back({version, params_});
  Rng rng(88);
  std::size_t non_abstained = 0;
  for (std::size_t round = 0; round < ell + 5; ++round) {
    const std::vector<GlobalModel> history(window.begin(), window.end());
    const ParamVec candidate = next_params(rng);
    ValidationOutcome ref;
    for (std::size_t i = 0; i < validators.size(); ++i) {
      SCOPED_TRACE(pool_sizes[i]);
      const GlobalPoolPin pin(*pools[i]);
      const auto got = validators[i].validate(candidate, history);
      if (i == 0) {
        ref = got;
      } else {
        expect_same(ref, got);
      }
    }
    if (!ref.abstained) ++non_abstained;
    ++version;
    window.push_back({version, candidate});
    while (window.size() > ell + 1) window.pop_front();
    for (Validator& v : validators) v.notify_commit(version, candidate);
    params_ = candidate;
  }
  ASSERT_GT(non_abstained, 4u);
  for (std::size_t i = 1; i < validators.size(); ++i) {
    SCOPED_TRACE(pool_sizes[i]);
    for (const auto& entry : window) {
      const ClassErrors* a = ser.cache().find(entry.version);
      const ClassErrors* b = validators[i].cache().find(entry.version);
      EXPECT_EQ(a == nullptr, b == nullptr) << "version " << entry.version;
      if (a != nullptr && b != nullptr) {
        EXPECT_EQ(*a, *b);
      }
    }
  }
}

}  // namespace
}  // namespace baffle
