#pragma once
// Shared fixture for the experiment-level parity suites
// (parallel_experiment, pipeline_parity, transport_parity): one small
// defended configuration, and field-by-field comparisons of everything a
// run records except wall-clock timings — the only fields allowed to
// differ between two runs that must be bit-identical.

#include <gtest/gtest.h>

#include <vector>

#include "exp/experiment.hpp"

namespace baffle {

inline ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.scenario = vision_scenario(0.10);
  cfg.scenario.num_clients = 40;
  cfg.scenario.train_per_class_override = 80;
  cfg.feedback.quorum = 4;
  cfg.feedback.validator.lookback = 8;
  cfg.schedule = AttackSchedule::stable_scenario();
  cfg.schedule.poison_rounds = {14, 18};
  cfg.rounds = 22;
  cfg.defense_start = 10;
  cfg.track_accuracy = true;
  return cfg;
}

inline void expect_rounds_identical(const std::vector<RoundRecord>& a,
                                    const std::vector<RoundRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].defense_active, b[i].defense_active);
    EXPECT_EQ(a[i].poisoned, b[i].poisoned);
    EXPECT_EQ(a[i].rejected, b[i].rejected);
    EXPECT_EQ(a[i].main_accuracy, b[i].main_accuracy);
    EXPECT_EQ(a[i].backdoor_accuracy, b[i].backdoor_accuracy);
    EXPECT_EQ(a[i].reject_votes, b[i].reject_votes);
    EXPECT_EQ(a[i].num_validators, b[i].num_validators);
  }
}

inline void expect_results_identical(const ExperimentResult& a,
                                     const ExperimentResult& b) {
  expect_rounds_identical(a.rounds, b.rounds);
  ASSERT_EQ(a.injections.size(), b.injections.size());
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.injections[i].round, b.injections[i].round);
    EXPECT_EQ(a.injections[i].adaptive, b.injections[i].adaptive);
    EXPECT_EQ(a.injections[i].alpha, b.injections[i].alpha);
    EXPECT_EQ(a.injections[i].rejected, b.injections[i].rejected);
    EXPECT_EQ(a.injections[i].reject_votes, b.injections[i].reject_votes);
    EXPECT_EQ(a.injections[i].total_voters, b.injections[i].total_voters);
  }
  EXPECT_EQ(a.rates.false_positives, b.rates.false_positives);
  EXPECT_EQ(a.rates.false_negatives, b.rates.false_negatives);
  EXPECT_EQ(a.final_main_accuracy, b.final_main_accuracy);
  EXPECT_EQ(a.final_backdoor_accuracy, b.final_backdoor_accuracy);
  EXPECT_EQ(a.adaptive_skipped, b.adaptive_skipped);
}

}  // namespace baffle
