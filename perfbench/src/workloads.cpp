#include "workloads.hpp"

#include "util/rng.hpp"

namespace perfbench {

namespace {

using baffle::DefenseMode;
using baffle::ExperimentConfig;

/// Injections every `spacing` rounds from `first` through `rounds`.
baffle::AttackSchedule every(std::size_t first, std::size_t spacing,
                             std::size_t rounds) {
  baffle::AttackSchedule schedule;
  for (std::size_t r = first; r <= rounds; r += spacing) {
    schedule.poison_rounds.push_back(r);
  }
  return schedule;
}

/// One defended experiment: BAFFLE (C+S), q = 5, stable start, defense
/// from round ℓ+2 (the first round with a full ℓ+1 window), replacement
/// injections every 10 rounds from ℓ+10.
ExperimentConfig defended(baffle::ScenarioConfig scenario,
                          std::size_t lookback, std::size_t rounds) {
  ExperimentConfig cfg;
  cfg.scenario = scenario;
  cfg.feedback.mode = DefenseMode::kClientsAndServer;
  cfg.feedback.quorum = 5;
  cfg.feedback.validator.lookback = lookback;
  cfg.rounds = rounds;
  cfg.defense_start = lookback + 2;
  cfg.stable_start = true;
  cfg.schedule = every(lookback + 10, 10, rounds);
  return cfg;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(baffle::Rng::split_mix(seed * 1000003ULL + i));
  }
  return out;
}

baffle::SweepValue lookback_value(std::size_t ell) {
  return {std::to_string(ell), [ell](ExperimentConfig& c) {
            c.feedback.validator.lookback = ell;
          }};
}

baffle::SweepValue mode_value(const char* label, DefenseMode mode) {
  return {label, [mode](ExperimentConfig& c) { c.feedback.mode = mode; }};
}

}  // namespace

ExperimentConfig with_rounds(ExperimentConfig config, std::size_t rounds) {
  config.rounds = rounds;
  return config;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.seeds = derive_seeds(seed, 8);
  if (name == "vision_l20") {
    w.config = defended(baffle::vision_scenario(0.10), 20, smoke ? 40 : 200);
    w.config.track_accuracy = true;
  } else if (name == "femnist_l80" || name == "femnist_l80_wire") {
    w.config = defended(baffle::femnist_scenario(0.01), smoke ? 10 : 80,
                        smoke ? 30 : 200);
    w.config.track_accuracy = false;
    w.config.transport = name == "femnist_l80_wire";
  } else if (name == "vision_grid") {
    w.grid = true;
    ExperimentConfig base;
    base.scenario = baffle::vision_scenario(0.10);
    base.feedback.quorum = 5;
    base.rounds = smoke ? 20 : 24;
    base.defense_start = smoke ? 10 : 12;
    base.stable_start = true;
    base.track_accuracy = false;
    base.schedule = every(base.defense_start + 5, 5, base.rounds);
    w.config = base;
    w.sweep.base = base;
    w.sweep.reps = smoke ? 1 : 2;
    w.sweep.base_seed = w.seeds.front();
    baffle::SweepAxis lookback{"lookback", {lookback_value(6)}};
    if (!smoke) {
      lookback.values.push_back(lookback_value(9));
      lookback.values.push_back(lookback_value(12));
    }
    w.sweep.axes = {
        lookback,
        {"mode",
         {mode_value("C", DefenseMode::kClientsOnly),
          mode_value("S", DefenseMode::kServerOnly),
          mode_value("C+S", DefenseMode::kClientsAndServer)}}};
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace perfbench
