// Round-pipelining determinism: the overlapped accuracy tracking
// (ScenarioConfig::pipeline_rounds) evaluates an immutable snapshot of
// the committed parameters on a pool task, so every RoundRecord must be
// bit-identical to the serial path — timings are the only fields
// allowed to differ.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "experiment_parity.hpp"

namespace baffle {
namespace {

TEST(PipelineParity, PipelinedRunMatchesSerialBitExact) {
  ExperimentConfig cfg = small_config();
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 31);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 31);
  expect_results_identical(pipelined, serial);
}

TEST(PipelineParity, PipelinedAdaptiveRunMatchesSerialBitExact) {
  // The adaptive attacker pulls the defense window mid-round; the
  // overlapped accuracy task must not perturb any of its decisions.
  ExperimentConfig cfg = small_config();
  cfg.schedule.adaptive = true;
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 33);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 33);
  expect_results_identical(pipelined, serial);
}

TEST(PipelineParity, PipelinedRejectionRoundsKeepOldSnapshot) {
  // Force rejections (quorum 1 + strict margin) so rejected rounds'
  // records are produced from the *previous* committed snapshot, and
  // check those against the serial path too.
  ExperimentConfig cfg = small_config();
  cfg.feedback.quorum = 1;
  cfg.feedback.validator.tau_margin = 0.5;
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 35);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 35);
  std::size_t rejects = 0;
  for (const auto& r : serial.rounds) rejects += r.rejected ? 1u : 0u;
  EXPECT_GT(rejects, 0u);
  expect_results_identical(pipelined, serial);
}

TEST(PipelineParity, RunRepeatedNestsPipelinedRunsInsidePool) {
  // Each repetition is itself a pool task that submits pipelined
  // accuracy tasks; the help-drain join must not deadlock even on a
  // single-worker pool, and results must equal standalone runs.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.scenario.pipeline_rounds = true;
  const auto repeated = run_repeated(cfg, 3, 70);
  ASSERT_EQ(repeated.runs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const auto standalone = run_experiment(cfg, 70 + i);
    expect_results_identical(repeated.runs[i], standalone);
  }
}

TEST(PipelineParity, TransportModePipelinedMatchesSerialBitExact) {
  // Transport mode routes proposals and votes through the wire-protocol
  // round driver; the graph-scheduled eval nodes must not perturb any
  // of its decisions or byte accounting.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 16;
  cfg.transport = true;
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 37);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 37);
  expect_results_identical(pipelined, serial);
  EXPECT_EQ(pipelined.wire_bytes, serial.wire_bytes);
  EXPECT_EQ(pipelined.comm.total_bytes(), serial.comm.total_bytes());
}

}  // namespace
}  // namespace baffle
