// baffle_sim — command-line driver for the defended-FL simulation.
//
// Runs one experiment with every knob exposed as a flag and prints the
// per-round log plus the detection summary. Examples:
//
//   baffle_sim                                  # paper defaults
//   baffle_sim --task=femnist --mode=C --q=7
//   baffle_sim --adaptive=1 --seed=7 --rounds=80
//   baffle_sim --attack=dba --colluders=4
//   baffle_sim --separate-validators=1 --validator-dropout=0.2
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "flags.hpp"
#include "util/metrics.hpp"

namespace {

using namespace baffle;
using tools::Flags;

void print_help() {
  std::puts(
      "baffle_sim — defended federated-learning simulation\n"
      "\n"
      "scenario:\n"
      "  --task=vision|femnist      dataset surrogate (default vision)\n"
      "  --clients=N                population size (default: preset)\n"
      "  --server-frac=F            server holdout share (default 0.10/0.01)\n"
      "  --alpha=A                  Dirichlet non-IID parameter (0.9)\n"
      "  --iid=0|1                  IID split instead of Dirichlet\n"
      "  --secure-agg=0|1           pairwise-masked aggregation (1)\n"
      "defense:\n"
      "  --mode=C|S|C+S             validating entities (C+S)\n"
      "  --q=N                      quorum threshold (5)\n"
      "  --lookback=N               history window l (20)\n"
      "  --defense-start=N          first enforced round (20)\n"
      "  --no-defense=1             disable the feedback loop\n"
      "  --separate-validators=0|1  independent validating set (0)\n"
      "  --validator-dropout=F      non-response probability (0)\n"
      "attack:\n"
      "  --attack=replacement|dba|none   (replacement)\n"
      "  --adaptive=0|1             defense-aware attacker (0)\n"
      "  --colluders=N              DBA colluder count (4)\n"
      "  --poison-rounds=a,b,c      injection rounds (30,35,40)\n"
      "  --vote=honest|accept|reject  malicious validators' votes (accept)\n"
      "run:\n"
      "  --rounds=N                 total rounds (50)\n"
      "  --transport=0|1            run rounds over the wire protocol\n"
      "                             (src/net; prints exact byte counts)\n"
      "  --seed=N                   RNG seed (1)\n"
      "  --from-scratch=1           skip stable-model pre-training\n"
      "  --quiet=1                  summary only\n"
      "  --metrics=PATH             dump runtime metrics CSV on exit\n");
}

std::vector<std::size_t> parse_rounds(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      out.push_back(static_cast<std::size_t>(
          std::strtoul(token.c_str(), nullptr, 10)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (const auto status = tools::parse_flags(
          argc, argv,
          {"task", "clients", "server-frac", "alpha", "iid", "secure-agg",
           "mode", "q", "lookback", "defense-start", "no-defense",
           "separate-validators", "validator-dropout", "attack", "adaptive",
           "colluders", "poison-rounds", "vote", "rounds", "transport",
           "seed", "from-scratch", "quiet", "metrics"},
          print_help, flags)) {
    return *status;
  }
  const auto task = flags.choice("task", "vision", {"vision", "femnist"});
  const auto mode = flags.choice("mode", "C+S", {"C", "S", "C+S"});
  const auto attack =
      flags.choice("attack", "replacement", {"replacement", "dba", "none"});
  const auto vote =
      flags.choice("vote", "accept", {"honest", "accept", "reject"});
  if (!task || !mode || !attack || !vote) return 2;

  ExperimentConfig cfg;
  const double default_sfrac = *task == "femnist" ? 0.01 : 0.10;
  const double sfrac = flags.num("server-frac", default_sfrac);
  cfg.scenario = *task == "femnist" ? femnist_scenario(sfrac)
                                   : vision_scenario(sfrac);
  if (flags.has("clients")) {
    cfg.scenario.num_clients =
        static_cast<std::size_t>(flags.integer("clients", 50));
  }
  cfg.scenario.dirichlet_alpha = flags.num("alpha", 0.9);
  cfg.scenario.iid = flags.flag("iid", false);
  cfg.scenario.secure_aggregation = flags.flag("secure-agg", true);

  cfg.feedback.mode = *mode == "C"   ? DefenseMode::kClientsOnly
                      : *mode == "S" ? DefenseMode::kServerOnly
                                     : DefenseMode::kClientsAndServer;
  cfg.feedback.quorum = static_cast<std::size_t>(flags.integer("q", 5));
  cfg.feedback.validator.lookback =
      static_cast<std::size_t>(flags.integer("lookback", 20));
  cfg.defense_start =
      static_cast<std::size_t>(flags.integer("defense-start", 20));
  cfg.defense_enabled = !flags.flag("no-defense", false);
  cfg.separate_validators = flags.flag("separate-validators", false);
  cfg.validator_dropout = flags.num("validator-dropout", 0.0);
  cfg.schedule = AttackSchedule::stable_scenario();
  if (flags.has("poison-rounds")) {
    cfg.schedule.poison_rounds =
        parse_rounds(flags.str("poison-rounds", ""));
  }
  if (*attack == "none") cfg.schedule.poison_rounds.clear();
  cfg.schedule.adaptive = flags.flag("adaptive", false);
  if (*attack == "dba") {
    cfg.use_dba = true;
    cfg.scenario.backdoor_override = BackdoorKind::kTrigger;
    cfg.dba_colluders =
        static_cast<std::size_t>(flags.integer("colluders", 4));
  }
  cfg.malicious_vote = *vote == "honest"   ? VoteStrategy::kHonest
                       : *vote == "reject" ? VoteStrategy::kAlwaysReject
                                           : VoteStrategy::kAlwaysAccept;

  cfg.rounds = static_cast<std::size_t>(flags.integer("rounds", 50));
  cfg.stable_start = !flags.flag("from-scratch", false);
  cfg.transport = flags.flag("transport", false);

  const auto seed = static_cast<std::uint64_t>(flags.integer("seed", 1));
  const bool quiet = flags.flag("quiet", false);

  std::printf("baffle_sim: task=%s mode=%s q=%zu l=%zu rounds=%zu seed=%llu"
              " attack=%s%s\n\n",
              task->c_str(), mode->c_str(), cfg.feedback.quorum,
              cfg.feedback.validator.lookback, cfg.rounds,
              static_cast<unsigned long long>(seed), attack->c_str(),
              cfg.schedule.adaptive ? " (adaptive)" : "");

  const ExperimentResult result = run_experiment(cfg, seed);

  if (!quiet) {
    std::printf("%-7s %-8s %-9s %-9s %-9s %s\n", "round", "poison",
                "verdict", "votes", "main", "backdoor");
    for (const auto& r : result.rounds) {
      if (!r.poisoned && r.round % 5 != 0) continue;
      std::printf("%-7zu %-8s %-9s %zu/%-7zu %-9.3f %.3f\n", r.round,
                  r.poisoned ? "YES" : "-",
                  !r.defense_active ? "(off)"
                                    : (r.rejected ? "REJECT" : "accept"),
                  r.reject_votes, r.num_validators, r.main_accuracy,
                  r.backdoor_accuracy);
    }
    std::printf("\n");
  }
  std::printf("clean rounds: %zu (false positives: %zu, rate %.3f)\n",
              result.rates.clean_rounds, result.rates.false_positives,
              result.rates.fp_rate);
  std::printf("poisoned rounds: %zu (false negatives: %zu, rate %.3f)\n",
              result.rates.poisoned_rounds, result.rates.false_negatives,
              result.rates.fn_rate);
  if (result.adaptive_skipped > 0) {
    std::printf("adaptive attacker skipped %zu scheduled rounds\n",
                result.adaptive_skipped);
  }
  std::printf("final main accuracy: %.3f, backdoor accuracy: %.3f\n",
              result.final_main_accuracy, result.final_backdoor_accuracy);
  if (cfg.transport) {
    const auto& comm = result.comm;
    std::printf("wire traffic (exact): %llu bytes — %llu download, "
                "%llu upload, %llu history, %llu control\n",
                static_cast<unsigned long long>(comm.total_bytes()),
                static_cast<unsigned long long>(comm.model_download_bytes),
                static_cast<unsigned long long>(comm.update_upload_bytes),
                static_cast<unsigned long long>(comm.history_bytes),
                static_cast<unsigned long long>(comm.control_bytes));
  }

  const auto& registry = MetricsRegistry::global();
  const std::uint64_t trains = registry.timer_count("experiment.round_train");
  if (trains > 0) {
    std::printf("round training: %.2f ms/round over %llu rounds\n",
                registry.timer_mean_ms("experiment.round_train"),
                static_cast<unsigned long long>(trains));
  }
  const std::uint64_t evals = registry.timer_count("experiment.round_eval");
  if (evals > 0) {
    std::printf("defense evaluation: %.2f ms/round over %llu rounds "
                "(cache: %llu hits / %llu misses, %llu promotions, "
                "%llu candidate reuses)\n",
                registry.timer_mean_ms("experiment.round_eval"),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(
                    registry.counter("prediction_cache.hits")),
                static_cast<unsigned long long>(
                    registry.counter("prediction_cache.misses")),
                static_cast<unsigned long long>(
                    registry.counter("prediction_cache.promotions")),
                static_cast<unsigned long long>(
                    registry.counter("validator.candidate_reuse")));
  }
  const std::uint64_t overlapped =
      registry.counter("experiment.pipelined_evals");
  if (overlapped > 0) {
    std::printf("accuracy tracking: %llu rounds overlapped with the next "
                "round's training (%.2f ms/round hidden)\n",
                static_cast<unsigned long long>(overlapped),
                registry.timer_mean_ms("experiment.round_accuracy"));
  }
  const std::uint64_t graph_tasks = registry.counter("task_graph.tasks");
  if (graph_tasks > 0) {
    std::printf("executor: %llu graph tasks (%llu help-drained) — "
                "train %.2f ms, validate %.2f, checkpoint %.2f, eval %.2f\n",
                static_cast<unsigned long long>(graph_tasks),
                static_cast<unsigned long long>(
                    registry.counter("thread_pool.help_drained")),
                registry.timer_mean_ms("task_graph.node.train"),
                registry.timer_mean_ms("task_graph.node.validate"),
                registry.timer_mean_ms("task_graph.node.checkpoint"),
                registry.timer_mean_ms("task_graph.node.eval"));
  }
  const std::uint64_t engine_runs = registry.timer_count("multi_eval.run");
  if (engine_runs > 0) {
    std::printf("eval engine: %llu batched passes over %llu tiles — "
                "bind %.2f ms, run %.2f ms\n",
                static_cast<unsigned long long>(engine_runs),
                static_cast<unsigned long long>(
                    registry.counter("multi_eval.tiles")),
                registry.timer_mean_ms("multi_eval.bind"),
                registry.timer_mean_ms("multi_eval.run"));
  }
  if (flags.has("metrics")) {
    const std::string path = flags.str("metrics", "metrics.csv");
    try {
      registry.dump_csv(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "baffle_sim: --metrics failed: %s\n", e.what());
      return 1;
    }
    std::printf("metrics written to %s\n", path.c_str());
  }
  return 0;
}
