#pragma once
// Traced mirror of run_experiment's round loop.
//
// The mirror rebuilds one defended experiment from the layers' public
// functions (build_scenario, FlServer, train_sgd, BaffleDefense,
// MaliciousUpdateProvider, TransportRoundDriver, ...) in the order
// run_experiment calls them, consuming the experiment Rng identically,
// and records a span around every call. Its ExperimentResult must equal
// run_experiment's on every deterministic field; same_result() is that
// check. It covers the configurations the benchmark runs: the
// model-replacement attacker, contributors as validators, no dropout.

#include <cstdint>
#include <string>

#include "exp/experiment.hpp"
#include "trace.hpp"

namespace perfbench {

struct MirrorContext {
  Tracer* tracer = nullptr;
  std::uint32_t leg = 0;
  std::uint32_t parent = kNoSpan;  // span the experiment's spans hang under
};

struct MirrorOutput {
  baffle::ExperimentResult result;
  /// Accuracy of the final global model. With tracking off this is the
  /// benchmark's own probe (one span); run_experiment reports 0 there.
  double final_main_accuracy = 0.0;
  double final_backdoor_accuracy = 0.0;
  std::size_t num_classes = 0;
};

MirrorOutput mirror_experiment(const baffle::ExperimentConfig& config,
                               std::uint64_t seed, const MirrorContext& ctx);

/// Empty when `a` and `b` agree byte for byte on every field except the
/// wall-clock ones (RoundRecord::train_ms / eval_ms); otherwise the first
/// difference. `compare_wire` also compares CommStats and wire bytes.
std::string result_mismatch(const baffle::ExperimentResult& a,
                            const baffle::ExperimentResult& b,
                            bool compare_wire);

}  // namespace perfbench
