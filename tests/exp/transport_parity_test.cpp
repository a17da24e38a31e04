// Transport determinism: running the round loop over the wire protocol
// (ExperimentConfig::transport — typed frames, per-client sessions, an
// in-process transport, actor tasks on the thread pool) must produce
// RoundRecords bit-identical to the direct in-process path. Serializing
// a model and voting on a decoded copy is only a refactor if not a
// single bit moves — these tests are the proof.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "experiment_parity.hpp"

namespace baffle {
namespace {

TEST(TransportParity, TransportRunMatchesInProcessBitExact) {
  ExperimentConfig cfg = small_config();
  cfg.transport = true;
  const auto wired = run_experiment(cfg, 31);
  cfg.transport = false;
  const auto direct = run_experiment(cfg, 31);
  expect_results_identical(wired, direct);

  // Exact accounting: the tracker's per-category totals must equal the
  // raw bytes the channels counted — to the byte, in both directions.
  EXPECT_GT(wired.wire_bytes, 0u);
  EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
  // The direct path does no wire accounting at all.
  EXPECT_EQ(direct.wire_bytes, 0u);
  EXPECT_EQ(direct.comm.total_bytes(), 0u);
}

TEST(TransportParity, RejectionHeavyRunMatchesBitExact) {
  // Rejected rounds exercise the reject half of the RoundResult
  // protocol (validators roll back the candidate) and the commit-clock
  // in the tracker; force plenty of them.
  ExperimentConfig cfg = small_config();
  cfg.feedback.quorum = 1;
  cfg.feedback.validator.tau_margin = 0.5;
  cfg.transport = true;
  const auto wired = run_experiment(cfg, 35);
  cfg.transport = false;
  const auto direct = run_experiment(cfg, 35);
  std::size_t rejects = 0;
  for (const auto& r : direct.rounds) rejects += r.rejected ? 1u : 0u;
  EXPECT_GT(rejects, 0u);
  expect_results_identical(wired, direct);
  EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
}

TEST(TransportParity, SeparateValidatorsAndDropoutMatchBitExact) {
  // Independent validator draws change who holds which window state
  // (sessions go stale and re-sync via larger deltas), and dropout
  // exercises footnote 1's accept-by-default on short voter sets.
  ExperimentConfig cfg = small_config();
  cfg.separate_validators = true;
  cfg.validator_dropout = 0.3;
  cfg.transport = true;
  const auto wired = run_experiment(cfg, 37);
  cfg.transport = false;
  const auto direct = run_experiment(cfg, 37);
  expect_results_identical(wired, direct);
  EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
}

}  // namespace
}  // namespace baffle
