#include "mirror.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "attack/backdoor.hpp"
#include "attack/model_replacement.hpp"
#include "metrics/confusion.hpp"
#include "net/round_driver.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using baffle::ParamVec;

/// Wraps the attacker's provider so every client update becomes a span:
/// "attack.update" for the armed attacker, "nn.client_update" otherwise.
class TracingProvider final : public baffle::UpdateProvider {
 public:
  TracingProvider(baffle::MaliciousUpdateProvider& inner,
                  const MirrorContext& ctx)
      : inner_(inner), ctx_(ctx) {}

  /// Set between rounds only; workers read them after the dispatch that
  /// publishes the round's tasks.
  void begin_round(std::uint32_t round, std::uint32_t parent) {
    round_ = round;
    parent_ = parent;
  }

  ParamVec update_for(std::size_t client_id, const baffle::Mlp& global,
                      baffle::Rng& rng) override {
    baffle::TrainWorkspace ws;
    return update_for(client_id, global, rng, ws);
  }

  ParamVec update_for(std::size_t client_id, const baffle::Mlp& global,
                      baffle::Rng& rng, baffle::TrainWorkspace& ws) override {
    const bool attack =
        client_id == inner_.attacker_id() && inner_.armed();
    const SpanScope span(*ctx_.tracer,
                         attack ? "attack.update" : "nn.client_update",
                         parent_, round_, ctx_.leg);
    return inner_.update_for(client_id, global, rng, ws);
  }

 private:
  baffle::MaliciousUpdateProvider& inner_;
  const MirrorContext& ctx_;
  std::uint32_t round_ = 0;
  std::uint32_t parent_ = kNoSpan;
};

// The two helpers below repeat run_experiment's private ones: the mirror
// must draw from the experiment Rng exactly as run_experiment does.

baffle::Dataset biased_sample(const baffle::Dataset& pool,
                              const std::vector<std::size_t>& weights,
                              std::size_t n, baffle::Rng& rng) {
  std::vector<std::vector<std::size_t>> by_class(pool.num_classes());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_class[static_cast<std::size_t>(pool[i].y)].push_back(i);
  }
  std::vector<double> w(weights.size(), 0.0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    if (!by_class[c].empty()) w[c] = static_cast<double>(weights[c]);
  }
  baffle::Dataset out(pool.dim(), pool.num_classes());
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  if (total <= 0.0) return out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.categorical(w);
    const auto& pool_c = by_class[c];
    out.add(pool[pool_c[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pool_c.size()) - 1))]]);
  }
  return out;
}

void ensure_member(std::vector<std::size_t>& ids, std::size_t member,
                   baffle::Rng& rng) {
  if (std::find(ids.begin(), ids.end(), member) != ids.end()) return;
  const auto slot = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
  ids[slot] = member;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

MirrorOutput mirror_experiment(const baffle::ExperimentConfig& config,
                               std::uint64_t seed, const MirrorContext& ctx) {
  using namespace baffle;
  if (config.use_dba || config.schedule.adaptive ||
      config.separate_validators || config.validator_dropout > 0.0) {
    throw std::invalid_argument(
        "mirror_experiment: only the replacement attack with contributors "
        "as validators is mirrored");
  }
  Tracer& tracer = *ctx.tracer;
  const auto span = [&](const char* name, std::uint32_t parent = kNoSpan,
                        std::uint32_t round = 0) {
    return SpanScope(tracer, name, parent == kNoSpan ? ctx.parent : parent,
                     round, ctx.leg);
  };

  if (config.defense_enabled) {
    validate_feedback_config(config.feedback,
                             config.scenario.clients_per_round);
  }
  Rng rng(seed);
  std::optional<Scenario> built;
  {
    const auto s = span("data.build_scenario");
    built.emplace(build_scenario(config.scenario, rng));
  }
  Scenario& scenario = *built;
  std::optional<FlServer> server_slot;
  {
    const auto s = span("fl.server_init");
    server_slot.emplace(scenario.arch, scenario.fl, rng.next_u64());
  }
  FlServer& server = *server_slot;
  if (config.stable_start) {
    const auto s = span("nn.pretrain");
    TrainConfig pre;
    pre.epochs = config.pretrain_epochs;
    pre.batch_size = 64;
    pre.sgd.learning_rate = 0.05f;
    Rng pre_rng = rng.fork();
    train_sgd(server.global_model(), scenario.task.train.features(),
              scenario.task.train.labels(), pre, pre_rng);
  }
  std::optional<BaffleDefense> defense_slot;
  {
    const auto s = span("core.defense_init");
    defense_slot.emplace(scenario.arch, config.feedback,
                         scenario.server_holdout);
    defense_slot->on_commit(server.version(),
                            server.global_model().parameters());
  }
  BaffleDefense& defense = *defense_slot;

  const std::size_t attacker = scenario.attacker_id;
  std::optional<MaliciousUpdateProvider> malicious_slot;
  {
    const auto s = span("attack.setup");
    Dataset attacker_clean = scenario.clients[attacker].data();
    if (config.attack_aux_samples > 0 && !attacker_clean.empty()) {
      auto weights = attacker_clean.class_counts();
      for (auto& c : weights) {
        if (c > 0) c += 1;
      }
      attacker_clean.merge(biased_sample(scenario.task.train, weights,
                                         config.attack_aux_samples, rng));
    }
    HonestUpdateProvider honest(&scenario.clients, scenario.fl.local_train);
    ModelReplacementConfig replacement;
    replacement.task = scenario.backdoor;
    replacement.poison_fraction = config.attack_poison_fraction;
    replacement.boost =
        config.attack_boost > 0.0
            ? config.attack_boost
            : static_cast<double>(scenario.fl.total_clients) /
                  scenario.fl.global_lr;
    replacement.train = scenario.fl.local_train;
    replacement.train.epochs = config.attack_epochs;
    replacement.train.sgd.learning_rate = config.attack_learning_rate;
    malicious_slot.emplace(honest, attacker, std::move(attacker_clean),
                           scenario.task.backdoor_train, replacement);
  }
  MaliciousUpdateProvider& malicious = *malicious_slot;
  TracingProvider provider(malicious, ctx);
  const std::unordered_set<std::size_t> malicious_ids{attacker};

  std::optional<InProcTransport> transport;
  std::optional<TransportRoundDriver> driver;
  if (config.transport) {
    const auto s = span("net.driver_init");
    transport.emplace();
    driver.emplace(*transport, server, defense, scenario.clients, provider,
                   malicious_ids, config.malicious_vote);
  }

  const ClientSampler sampler(scenario.fl.total_clients,
                              scenario.fl.clients_per_round);
  MirrorOutput out;
  out.num_classes = scenario.task.test.num_classes();
  ExperimentResult& result = out.result;
  result.rounds.reserve(config.rounds);
  MlpEvalWorkspace accuracy_ws;
  const auto accuracy = [&](std::uint32_t parent, std::uint32_t round) {
    const auto s = span("nn.accuracy", parent, round);
    const double main =
        evaluate_confusion(server.global_model(), scenario.task.test,
                           accuracy_ws)
            .accuracy();
    const double backdoor = backdoor_accuracy(
        server.global_model(), scenario.task.backdoor_test,
        scenario.backdoor.target_class, accuracy_ws);
    return std::pair{main, backdoor};
  };

  for (std::size_t r = 1; r <= config.rounds; ++r) {
    const auto round = static_cast<std::uint32_t>(r);
    const auto round_span = span("exp.round", kNoSpan, round);
    const std::uint32_t rid = round_span.id();

    bool scheduled = false;
    std::vector<std::size_t> contributors;
    {
      const auto s = span("fl.sample", rid, round);
      scheduled = config.schedule.is_poison_round(r);
      contributors = sampler.sample_round(rng);
      if (scheduled) ensure_member(contributors, attacker, rng);
      malicious.arm(scheduled);
    }

    const auto train_start = Clock::now();
    std::optional<FlServer::Proposal> proposal;
    if (driver) {
      const auto s = span("net.propose", rid, round);
      provider.begin_round(round, s.id());
      proposal.emplace(driver->propose_round(contributors, rng));
    } else {
      const auto s = span("fl.propose", rid, round);
      // propose_round_with, split so updates and aggregation are spans
      // of their own: per-client Rngs forked serially in contributor
      // order, updates fanned out, then the shared aggregation path.
      std::vector<Rng> client_rngs;
      client_rngs.reserve(contributors.size());
      for (std::size_t i = 0; i < contributors.size(); ++i) {
        client_rngs.push_back(rng.fork());
      }
      std::vector<ParamVec> updates(contributors.size());
      {
        const auto u = span("fl.updates", s.id(), round);
        provider.begin_round(round, u.id());
        const Mlp& global = server.global_model();
        const auto compute_one = [&](std::size_t i) {
          thread_local TrainWorkspace ws;
          updates[i] =
              provider.update_for(contributors[i], global, client_rngs[i], ws);
        };
        if (scenario.fl.parallel_updates && contributors.size() > 1) {
          ThreadPool::global().parallel_for(contributors.size(), compute_one);
        } else {
          for (std::size_t i = 0; i < contributors.size(); ++i) {
            compute_one(i);
          }
        }
      }
      const auto a = span("fl.aggregate", s.id(), round);
      proposal.emplace(
          server.aggregate_updates(std::move(updates), contributors));
    }
    const double train_seconds = seconds_since(train_start);

    const bool injected = scheduled;
    const bool active = config.defense_enabled && r >= config.defense_start &&
                        defense.ready();
    FeedbackDecision decision;
    double eval_seconds = 0.0;
    if (active) {
      const auto eval_start = Clock::now();
      if (driver) {
        const auto s = span("net.evaluate", rid, round);
        decision = driver->evaluate(*proposal, contributors);
      } else {
        const auto s = span("core.evaluate", rid, round);
        decision = defense.evaluate(proposal->candidate_params, contributors,
                                    scenario.clients, malicious_ids,
                                    config.malicious_vote);
      }
      eval_seconds = seconds_since(eval_start);
    }

    const bool rejected = active && decision.reject;
    std::uint64_t version = server.version();
    {
      const auto s = span("fl.checkpoint", rid, round);
      if (rejected) {
        server.discard(*proposal);
        defense.on_reject();
      } else {
        version = server.commit(*proposal);
        defense.on_commit(version, proposal->candidate_params);
      }
    }
    if (driver) {
      const auto s = span("net.finish_round", rid, round);
      driver->finish_round(*proposal, !rejected, version, decision);
    }

    RoundRecord record;
    record.round = r;
    record.defense_active = active;
    record.poisoned = injected;
    record.rejected = rejected;
    record.reject_votes = decision.reject_votes;
    record.num_validators = decision.total_voters;
    record.eval_ms = eval_seconds * 1e3;
    record.train_ms = train_seconds * 1e3;
    if (config.track_accuracy) {
      std::tie(record.main_accuracy, record.backdoor_accuracy) =
          accuracy(rid, round);
    }
    result.rounds.push_back(record);
    if (injected) {
      InjectionRecord inj;
      inj.round = r;
      inj.adaptive = false;
      inj.alpha = 1.0;
      inj.rejected = rejected;
      inj.reject_votes = decision.reject_votes;
      inj.total_voters = decision.total_voters;
      result.injections.push_back(inj);
    }
  }

  if (driver) {
    result.comm = driver->tracker().stats();
    result.wire_bytes = driver->wire_bytes();
  }
  result.rates = compute_detection_rates(result.rounds);
  if (!result.rounds.empty() && config.track_accuracy) {
    result.final_main_accuracy = result.rounds.back().main_accuracy;
    result.final_backdoor_accuracy = result.rounds.back().backdoor_accuracy;
    out.final_main_accuracy = result.final_main_accuracy;
    out.final_backdoor_accuracy = result.final_backdoor_accuracy;
  } else {
    std::tie(out.final_main_accuracy, out.final_backdoor_accuracy) =
        accuracy(kNoSpan, 0);
  }
  return out;
}

std::string result_mismatch(const baffle::ExperimentResult& a,
                            const baffle::ExperimentResult& b,
                            bool compare_wire) {
  if (a.rounds.size() != b.rounds.size()) return "round count";
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const baffle::RoundRecord& x = a.rounds[i];
    const baffle::RoundRecord& y = b.rounds[i];
    const bool same =
        x.round == y.round && x.defense_active == y.defense_active &&
        x.poisoned == y.poisoned && x.rejected == y.rejected &&
        same_bits(x.main_accuracy, y.main_accuracy) &&
        same_bits(x.backdoor_accuracy, y.backdoor_accuracy) &&
        x.reject_votes == y.reject_votes &&
        x.num_validators == y.num_validators;
    if (!same) return "round " + std::to_string(i + 1) + " record";
  }
  if (a.injections.size() != b.injections.size()) return "injection count";
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    const auto& x = a.injections[i];
    const auto& y = b.injections[i];
    if (x.round != y.round || x.adaptive != y.adaptive ||
        !same_bits(x.alpha, y.alpha) || x.rejected != y.rejected ||
        x.reject_votes != y.reject_votes ||
        x.total_voters != y.total_voters) {
      return "injection " + std::to_string(i);
    }
  }
  const auto& ra = a.rates;
  const auto& rb = b.rates;
  if (!same_bits(ra.fp_rate, rb.fp_rate) ||
      !same_bits(ra.fn_rate, rb.fn_rate) ||
      ra.clean_rounds != rb.clean_rounds ||
      ra.poisoned_rounds != rb.poisoned_rounds ||
      ra.false_positives != rb.false_positives ||
      ra.false_negatives != rb.false_negatives) {
    return "detection rates";
  }
  if (!same_bits(a.final_main_accuracy, b.final_main_accuracy) ||
      !same_bits(a.final_backdoor_accuracy, b.final_backdoor_accuracy) ||
      a.adaptive_skipped != b.adaptive_skipped) {
    return "final accuracies";
  }
  if (compare_wire) {
    const auto& ca = a.comm;
    const auto& cb = b.comm;
    if (ca.model_download_bytes != cb.model_download_bytes ||
        ca.update_upload_bytes != cb.update_upload_bytes ||
        ca.history_bytes != cb.history_bytes ||
        ca.control_bytes != cb.control_bytes || ca.rounds != cb.rounds ||
        a.wire_bytes != b.wire_bytes) {
      return "wire bytes";
    }
  }
  return {};
}

}  // namespace perfbench
