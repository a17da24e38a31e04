// Experiment-level determinism across thread placements.
//
// The adaptive provider lives inside experiment.cpp, so its concurrency
// safety (atomic submitted_/alpha_, single attacker task per round) is
// exercised through run_experiment. Every run is repeated on pinned
// pools of 1 (the serial reference: parallel_for runs inline), 2, 3 and
// 4 workers, and every record must be bit-identical — client training,
// secure-agg masking, validator fan-out, GEMM row splits and the
// evaluation engine all move between threads, and none may move a bit.
// run_repeated additionally nests whole runs inside the pool, so its
// results double as a smoke test for nested fork-join scheduling.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "experiment_parity.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

/// fn() on a pinned pool of `workers` workers.
template <typename Fn>
auto on_pool(std::size_t workers, Fn fn) {
  ThreadPool pool(workers);
  const GlobalPoolPin pin(pool);
  return fn();
}

constexpr std::size_t kParallelPoolSizes[] = {2, 3, 4};

TEST(ParallelExperiment, ReplacementRunMatchesSerialBitExact) {
  const ExperimentConfig cfg = small_config();
  const auto serial = on_pool(1, [&] { return run_experiment(cfg, 21); });
  for (const std::size_t workers : kParallelPoolSizes) {
    SCOPED_TRACE(workers);
    expect_results_identical(
        on_pool(workers, [&] { return run_experiment(cfg, 21); }), serial);
  }
}

TEST(ParallelExperiment, AdaptiveRunMatchesSerialBitExact) {
  ExperimentConfig cfg = small_config();
  cfg.schedule.adaptive = true;
  const auto serial = on_pool(1, [&] { return run_experiment(cfg, 23); });
  for (const std::size_t workers : kParallelPoolSizes) {
    SCOPED_TRACE(workers);
    expect_results_identical(
        on_pool(workers, [&] { return run_experiment(cfg, 23); }), serial);
  }
}

TEST(ParallelExperiment, ParallelEngineNestsInPipelinedRepeatedRuns) {
  // Deepest nesting the runtime supports: the pool-parallel evaluation
  // engine (DESIGN.md §17) runs inside a validator task of a pipelined
  // task-graph round, itself a repetition task of run_repeated — three
  // levels of fork-join on one pool, safe because validate() never
  // holds its lock across a pool wait and waiters help-drain. Thread
  // placement must not leak into results: every pool size reproduces
  // the 1-worker runs bit for bit.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.track_accuracy = false;
  cfg.scenario.pipeline_rounds = true;
  const auto serial = on_pool(1, [&] { return run_repeated(cfg, 2, 131); });
  ASSERT_EQ(serial.runs.size(), 2u);
  for (const std::size_t workers : kParallelPoolSizes) {
    SCOPED_TRACE(workers);
    const auto nested =
        on_pool(workers, [&] { return run_repeated(cfg, 2, 131); });
    ASSERT_EQ(nested.runs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE(i);
      expect_results_identical(nested.runs[i], serial.runs[i]);
    }
  }
}

TEST(ParallelExperiment, RunRepeatedNestsInsidePool) {
  // Repetitions run as pool tasks; each repetition's rounds then issue
  // their own parallel_for. The help-drain pool makes that safe, and
  // pre-forked Rngs make each repetition's result independent of
  // scheduling — so the nested runs must equal standalone ones.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.track_accuracy = false;
  const auto repeated = run_repeated(cfg, 3, 90);
  ASSERT_EQ(repeated.runs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const auto standalone = run_experiment(cfg, 90 + i);
    expect_results_identical(repeated.runs[i], standalone);
  }
}

}  // namespace
}  // namespace baffle
