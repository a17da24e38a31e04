#pragma once
// The benchmark's named workloads: whole defended experiments, built
// only from public configuration types. Every workload runs the
// model-replacement attack at a fixed spacing after the defense starts.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/sweep.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// true: the unit of work is run_sweep(sweep); false: run_experiment(config).
  bool grid = false;
  baffle::ExperimentConfig config;  // grid: the sweep's base config
  baffle::SweepSpec sweep;
  /// Experiment seeds a single-experiment run cycles through.
  std::vector<std::uint64_t> seeds;
};

/// Builds workload `name` for benchmark seed `seed`; `smoke` shrinks it to
/// a few seconds. Empty for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke);

/// The same experiment cut short (or reduced to set-up with rounds = 0).
baffle::ExperimentConfig with_rounds(baffle::ExperimentConfig config,
                                     std::size_t rounds);

}  // namespace perfbench
