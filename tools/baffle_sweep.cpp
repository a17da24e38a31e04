// baffle_sweep — scenario×seed grid sweep driver (DESIGN.md §15).
//
// Expands the cross-product of the requested axes, runs every cell for
// --reps repetitions on the task-graph executor, and writes one CSV per
// cell plus an aggregate sweep_results.csv. Per-cell results are
// bit-identical across thread counts and between --serial=1 and the
// default parallel driver (seeds are a pure function of cell index).
//
//   baffle_sweep                                     # default tiny grid
//   baffle_sweep --lookback=8,12,20 --q=3,5 --reps=5
//   baffle_sweep --alpha=0.3,0.9 --dropout=0,0.2 --out-dir=sweep_out
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "flags.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace baffle;
using tools::Flags;

void print_help() {
  std::puts(
      "baffle_sweep — scenario grid sweep on the task-graph executor\n"
      "\n"
      "axes (comma-separated value lists; each flag adds one axis):\n"
      "  --lookback=a,b,...         history window l values\n"
      "  --q=a,b,...                quorum threshold values\n"
      "  --alpha=a,b,...            Dirichlet non-IID parameter values\n"
      "  --dropout=a,b,...          validator non-response probabilities\n"
      "  (no axis flags: default grid lookback=12,20 x q=3,5)\n"
      "base config:\n"
      "  --task=vision|femnist      dataset surrogate (vision)\n"
      "  --clients=N                population size (preset)\n"
      "  --rounds=N                 total rounds (50)\n"
      "  --defense-start=N          first enforced round (20)\n"
      "  --train-per-class=N        shrink the train split (speed knob)\n"
      "  --poison-rounds=a,b,c      injection rounds (preset)\n"
      "run:\n"
      "  --reps=N                   repetitions per cell (5)\n"
      "  --seed=N                   sweep base seed (1)\n"
      "  --serial=1                 serial cell loop (parallel default)\n"
      "  --out-dir=PATH             CSV output directory (.)\n"
      "  --quiet=1                  suppress the per-cell table\n"
      "  --metrics=PATH             dump runtime metrics CSV on exit\n");
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > pos) out.push_back(csv.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

SweepAxis size_axis(const std::string& name, const std::string& csv,
                    void (*set)(ExperimentConfig&, std::size_t)) {
  SweepAxis axis{name, {}};
  for (const auto& token : split_csv(csv)) {
    const auto v =
        static_cast<std::size_t>(std::strtoul(token.c_str(), nullptr, 10));
    axis.values.push_back({token, [set, v](ExperimentConfig& c) { set(c, v); }});
  }
  return axis;
}

SweepAxis real_axis(const std::string& name, const std::string& csv,
                    void (*set)(ExperimentConfig&, double)) {
  SweepAxis axis{name, {}};
  for (const auto& token : split_csv(csv)) {
    const double v = std::strtod(token.c_str(), nullptr);
    axis.values.push_back({token, [set, v](ExperimentConfig& c) { set(c, v); }});
  }
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (const auto status = tools::parse_flags(
          argc, argv,
          {"lookback", "q", "alpha", "dropout", "task", "clients", "rounds",
           "defense-start", "train-per-class", "poison-rounds", "reps", "seed",
           "serial", "out-dir", "quiet", "metrics"},
          print_help, flags)) {
    return *status;
  }
  const auto task = flags.choice("task", "vision", {"vision", "femnist"});
  if (!task) return 2;

  SweepSpec spec;
  const double sfrac = *task == "femnist" ? 0.01 : 0.10;
  spec.base.scenario =
      *task == "femnist" ? femnist_scenario(sfrac) : vision_scenario(sfrac);
  if (flags.has("clients")) {
    spec.base.scenario.num_clients =
        static_cast<std::size_t>(flags.integer("clients", 50));
  }
  if (flags.has("train-per-class")) {
    spec.base.scenario.train_per_class_override =
        static_cast<std::size_t>(flags.integer("train-per-class", 0));
  }
  spec.base.rounds = static_cast<std::size_t>(flags.integer("rounds", 50));
  spec.base.defense_start =
      static_cast<std::size_t>(flags.integer("defense-start", 20));
  spec.base.schedule = AttackSchedule::stable_scenario();
  if (flags.has("poison-rounds")) {
    spec.base.schedule.poison_rounds.clear();
    for (const auto& token : split_csv(flags.str("poison-rounds", ""))) {
      spec.base.schedule.poison_rounds.push_back(
          static_cast<std::size_t>(std::strtoul(token.c_str(), nullptr, 10)));
    }
  }
  spec.reps = static_cast<std::size_t>(flags.integer("reps", 5));
  spec.base_seed = static_cast<std::uint64_t>(flags.integer("seed", 1));

  const bool default_grid = !flags.has("lookback") && !flags.has("q") &&
                            !flags.has("alpha") && !flags.has("dropout");
  if (flags.has("lookback") || default_grid) {
    spec.axes.push_back(size_axis(
        "lookback", flags.str("lookback", "12,20"),
        [](ExperimentConfig& c, std::size_t v) {
          c.feedback.validator.lookback = v;
        }));
  }
  if (flags.has("q") || default_grid) {
    spec.axes.push_back(size_axis(
        "q", flags.str("q", "3,5"),
        [](ExperimentConfig& c, std::size_t v) { c.feedback.quorum = v; }));
  }
  if (flags.has("alpha")) {
    spec.axes.push_back(real_axis(
        "alpha", flags.str("alpha", ""), [](ExperimentConfig& c, double v) {
          c.scenario.dirichlet_alpha = v;
        }));
  }
  if (flags.has("dropout")) {
    spec.axes.push_back(real_axis(
        "dropout", flags.str("dropout", ""),
        [](ExperimentConfig& c, double v) { c.validator_dropout = v; }));
  }

  const bool serial = flags.flag("serial", false);
  const bool quiet = flags.flag("quiet", false);
  const std::string out_dir = flags.str("out-dir", ".");

  std::size_t grid = 1;
  for (const auto& axis : spec.axes) grid *= axis.values.size();
  std::printf("baffle_sweep: task=%s grid=%zu cells x %zu reps, seed=%llu, "
              "%s driver, %zu threads\n",
              task->c_str(), grid, spec.reps,
              static_cast<unsigned long long>(spec.base_seed),
              serial ? "serial" : "task-graph",
              ThreadPool::global().size());

  try {
    std::filesystem::create_directories(out_dir);
    const SweepResult result = run_sweep(spec, !serial);

    for (const auto& cell : result.cells) {
      if (!quiet) {
        std::printf("  [%2zu] %-40s fp %.3f±%.3f  fn %.3f±%.3f  "
                    "acc %.3f  bd %.3f\n",
                    cell.index, cell.name.c_str(), cell.fp.mean, cell.fp.std,
                    cell.fn.mean, cell.fn.std, cell.main_accuracy.mean,
                    cell.backdoor_accuracy.mean);
      }
      write_cell_csv(cell, out_dir + "/cell_" + std::to_string(cell.index) +
                               ".csv");
    }
    write_sweep_csv(spec, result, out_dir + "/sweep_results.csv");
    std::printf("results: %s/sweep_results.csv (+%zu per-cell files)\n",
                out_dir.c_str(), result.cells.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baffle_sweep: %s\n", e.what());
    return 1;
  }

  const auto& registry = MetricsRegistry::global();
  std::printf("executor: %llu graph tasks (%llu help-drained) — "
              "train %.2f ms, validate %.2f, checkpoint %.2f, eval %.2f, "
              "experiment %.2f\n",
              static_cast<unsigned long long>(
                  registry.counter("task_graph.tasks")),
              static_cast<unsigned long long>(
                  registry.counter("thread_pool.help_drained")),
              registry.timer_mean_ms("task_graph.node.train"),
              registry.timer_mean_ms("task_graph.node.validate"),
              registry.timer_mean_ms("task_graph.node.checkpoint"),
              registry.timer_mean_ms("task_graph.node.eval"),
              registry.timer_mean_ms("task_graph.node.experiment"));
  if (flags.has("metrics")) {
    const std::string path = flags.str("metrics", "metrics.csv");
    try {
      registry.dump_csv(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "baffle_sweep: --metrics failed: %s\n", e.what());
      return 1;
    }
    std::printf("metrics written to %s\n", path.c_str());
  }
  return 0;
}
