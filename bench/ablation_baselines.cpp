// Ablation A4: BaFFLe vs Byzantine-robust aggregation baselines under
// the single-client boosted model-replacement attack (stable-model
// scenario). Besides effectiveness, the table records each rule's
// secure-aggregation compatibility — the paper's structural argument:
// every update-inspection rule needs the individual updates.

#include <cstdio>

#include "baselines/flguard_lite.hpp"
#include "baselines/foolsgold.hpp"
#include "baselines/krum.hpp"
#include "baselines/median.hpp"
#include "baselines/norm_clip.hpp"
#include "baselines/rfa.hpp"
#include "baselines/trimmed_mean.hpp"
#include "bench_common.hpp"
#include "attack/backdoor.hpp"
#include "metrics/confusion.hpp"
#include "tensor/ops.hpp"

using namespace baffle;

namespace {

struct ArmResult {
  double main_acc = 0.0;
  double backdoor_acc = 0.0;
};

/// Drives the stable-model attack scenario with a caller-supplied
/// aggregation of the raw updates (robust baselines must see them
/// individually — which is exactly their secure-aggregation problem).
template <typename AggregateFn>
ArmResult run_with_aggregation(std::uint64_t seed, AggregateFn&& aggregate) {
  Rng rng(seed);
  ScenarioConfig scfg = vision_scenario(0.10);
  Scenario scenario = build_scenario(scfg, rng);
  Mlp global(scenario.arch);
  global.init(rng);
  TrainConfig pre;
  pre.epochs = 30;
  pre.batch_size = 64;
  pre.sgd.learning_rate = 0.05f;
  Rng pre_rng = rng.fork();
  train_sgd(global, scenario.task.train.features(),
            scenario.task.train.labels(), pre, pre_rng);

  HonestUpdateProvider honest(&scenario.clients, scenario.fl.local_train);
  ModelReplacementConfig attack;
  attack.task = scenario.backdoor;
  attack.poison_fraction = 0.3;
  attack.boost = static_cast<double>(scenario.fl.total_clients) /
                 scenario.fl.global_lr;
  attack.train = scenario.fl.local_train;
  attack.train.epochs = 8;
  attack.train.sgd.learning_rate = 0.05f;
  MaliciousUpdateProvider provider(honest, scenario.attacker_id,
                                   scenario.clients[scenario.attacker_id]
                                       .data(),
                                   scenario.task.backdoor_train, attack);

  const AttackSchedule schedule = AttackSchedule::stable_scenario();
  const ClientSampler sampler(scenario.fl.total_clients,
                              scenario.fl.clients_per_round);
  const float step_scale = static_cast<float>(
      scenario.fl.global_lr * scenario.fl.clients_per_round /
      scenario.fl.total_clients);

  const std::size_t rounds = bench_fast() ? 42 : 50;
  for (std::size_t r = 1; r <= rounds; ++r) {
    const bool poison = schedule.is_poison_round(r);
    auto contributors = sampler.sample_round(rng);
    if (poison) contributors[0] = scenario.attacker_id;
    provider.arm(poison);
    std::vector<ParamVec> updates;
    for (std::size_t id : contributors) {
      Rng crng = rng.fork();
      updates.push_back(provider.update_for(id, global, crng));
    }
    ParamVec delta = aggregate(updates, contributors);
    scale(delta, step_scale);  // same effective step as FedAvg's λn/N
    global.add_to_parameters(delta);
  }

  ArmResult out;
  out.main_acc = evaluate_confusion(global, scenario.task.test).accuracy();
  out.backdoor_acc = backdoor_accuracy(global, scenario.task.backdoor_test,
                                       scenario.backdoor.target_class);
  return out;
}

}  // namespace

int main() {
  print_banner("Ablation — BaFFLe vs robust-aggregation baselines",
               "BaFFLe (ICDCS'21), §I/§VII motivation");

  const std::size_t reps = bench_fast() ? 1 : 2;
  CsvWriter csv(bench::csv_path("ablation_baselines"),
                {"rule", "secure_agg_compatible", "main_acc",
                 "backdoor_acc"});
  TextTable table({"aggregation rule", "secure-agg?", "main acc",
                   "backdoor acc"});

  const auto report = [&](const char* name, const char* compat,
                          auto&& aggregate) {
    double main = 0.0, bd = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
      const ArmResult r = run_with_aggregation(17000 + i, aggregate);
      main += r.main_acc / static_cast<double>(reps);
      bd += r.backdoor_acc / static_cast<double>(reps);
    }
    table.row({name, compat, format_rate(main), format_rate(bd)});
    csv.row({name, compat, CsvWriter::num(main), CsvWriter::num(bd)});
  };

  report("fedavg (no defense)", "yes",
         [](const std::vector<ParamVec>& u, const auto&) {
           return mean_update(u);
         });
  report("krum (f=1)", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return KrumAggregator(1).aggregate(u);
         });
  report("multi-krum (f=1)", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return KrumAggregator(1, true).aggregate(u);
         });
  report("coordinate median", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return CoordinateMedianAggregator().aggregate(u);
         });
  report("trimmed mean (b=2)", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return TrimmedMeanAggregator(2).aggregate(u);
         });
  report("rfa (geometric median)", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return RfaAggregator(16).aggregate(u);
         });
  report("norm clipping (median)", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return NormClipAggregator().aggregate(u);
         });
  report("flguard-lite (filter+clip+noise)", "NO",
         [](const std::vector<ParamVec>& u, const auto&) {
           return FlGuardLiteAggregator().aggregate(u);
         });
  {
    FoolsGold fg;
    report("foolsgold", "NO",
           [&fg](const std::vector<ParamVec>& u,
                 const std::vector<std::size_t>& ids) {
             return fg.aggregate(u, ids);
           });
  }

  // BaFFLe arm: the full defended pipeline (secure aggregation on).
  {
    ExperimentConfig cfg = bench::stable_config(
        TaskKind::kVision10, 0.10, DefenseMode::kClientsAndServer, 20, 5);
    cfg.track_accuracy = true;
    double main = 0.0, bd = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto r = run_experiment(cfg, 17000 + i);
      main += r.final_main_accuracy / static_cast<double>(reps);
      bd += r.final_backdoor_accuracy / static_cast<double>(reps);
    }
    table.row({"fedavg + BaFFLe", "yes", format_rate(main),
               format_rate(bd)});
    csv.row({"fedavg + BaFFLe", "yes", CsvWriter::num(main),
             CsvWriter::num(bd)});
  }

  std::printf("%s", table.render().c_str());
  std::printf(
      "\nexpected: plain FedAvg ends fully backdoored; robust rules blunt\n"
      "the boosted update to varying degrees (and several still leak the\n"
      "backdoor under non-IID data) while requiring individual updates —\n"
      "incompatible with secure aggregation. BaFFLe keeps the backdoor\n"
      "out while staying compatible. CSV: %s\n",
      bench::csv_path("ablation_baselines").c_str());
  return 0;
}
