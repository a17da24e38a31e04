#include "exp/experiment.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "attack/backdoor.hpp"
#include "attack/dba.hpp"
#include "metrics/confusion.hpp"
#include "net/round_driver.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/task_graph.hpp"

namespace baffle {

namespace {

/// Defense-aware attacker (Table II / Fig. 5): reuses the defense's own
/// Validator on the attacker's local data as the self-check for
/// craft_adaptive_update. Falls back to an honest update when no scale
/// α passes (the attacker sits the round out).
class AdaptiveProvider final : public UpdateProvider {
 public:
  AdaptiveProvider(HonestUpdateProvider honest, std::size_t attacker_id,
                   Dataset attacker_clean, Dataset backdoor_pool,
                   AdaptiveAttackConfig config, MlpConfig arch,
                   ValidatorConfig validator_config,
                   const BaffleDefense* defense)
      : honest_(std::move(honest)),
        attacker_id_(attacker_id),
        attacker_clean_(attacker_clean),
        backdoor_pool_(std::move(backdoor_pool)),
        config_(std::move(config)),
        defense_(defense),
        self_validator_(std::move(attacker_clean), std::move(arch),
                        validator_config) {}

  void arm(bool poison) { armed_ = poison; }
  bool submitted() const { return submitted_.load(std::memory_order_relaxed); }
  double alpha() const { return alpha_.load(std::memory_order_relaxed); }

  ParamVec update_for(std::size_t client_id, const Mlp& global,
                      Rng& rng) override {
    TrainWorkspace ws;
    return update_for(client_id, global, rng, ws);
  }

  ParamVec update_for(std::size_t client_id, const Mlp& global, Rng& rng,
                      TrainWorkspace& ws) override {
    if (client_id != attacker_id_ || !armed_) {
      return honest_.update_for(client_id, global, rng, ws);
    }
    // Only the attacker's (unique) round task reaches this branch, so
    // self_validator_ has a single caller per round; submitted_/alpha_
    // are atomics only so the concurrent round loop stays race-free by
    // construction rather than by argument.
    const auto window = defense_->current_window();
    const AttackerSideCheck check = [&](const ParamVec& candidate) {
      const ValidationOutcome o =
          self_validator_.validate(candidate, window);
      if (o.abstained) return false;  // no basis to judge: stay silent
      return o.phi <= config_.self_check_margin * o.tau;
    };
    const auto crafted = craft_adaptive_update(
        global, attacker_clean_, backdoor_pool_, config_, check, rng, ws);
    if (!crafted) {
      submitted_.store(false, std::memory_order_relaxed);
      alpha_.store(0.0, std::memory_order_relaxed);
      return honest_.update_for(client_id, global, rng, ws);
    }
    submitted_.store(true, std::memory_order_relaxed);
    alpha_.store(crafted->alpha, std::memory_order_relaxed);
    return crafted->update;
  }

 private:
  HonestUpdateProvider honest_;
  std::size_t attacker_id_;
  Dataset attacker_clean_;
  Dataset backdoor_pool_;
  AdaptiveAttackConfig config_;
  const BaffleDefense* defense_;
  Validator self_validator_;
  bool armed_ = false;
  std::atomic<bool> submitted_{false};
  std::atomic<double> alpha_{0.0};
};

/// Draws `n` samples from `pool` with per-class probabilities
/// proportional to `weights` — used to enlarge the attacker's dataset
/// while PRESERVING its non-IID skew: a realistic powerful attacker has
/// more data, not a uniform view of everyone's data (which no FL client
/// has). The residual bias is what lets honest validators catch
/// injections the attacker's self-check approves (§VI-C).
Dataset biased_sample(const Dataset& pool,
                      const std::vector<std::size_t>& weights, std::size_t n,
                      Rng& rng) {
  std::vector<std::vector<std::size_t>> by_class(pool.num_classes());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_class[static_cast<std::size_t>(pool[i].y)].push_back(i);
  }
  std::vector<double> w(weights.size(), 0.0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    if (!by_class[c].empty()) w[c] = static_cast<double>(weights[c]);
  }
  Dataset out(pool.dim(), pool.num_classes());
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
                   Rng& rng) {
  for (std::size_t id : ids) {
    if (id == member) return;
  }
  const auto slot = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
  ids[slot] = member;
}

/// Per-round accuracy tracking: the test and backdoor test sets are
/// bound to one engine each for the whole experiment, and every round
/// scores its committed parameters against them directly. One probe
/// serves one caller at a time (the eval nodes are chained).
class AccuracyProbe {
 public:
  AccuracyProbe(const MlpConfig& arch, const Dataset& test,
                const Dataset& backdoor_test, int target_class)
      : test_(test),
        backdoor_test_(backdoor_test),
        target_class_(target_class),
        test_engine_(arch),
        backdoor_engine_(arch),
        test_preds_(test.size()),
        backdoor_preds_(backdoor_test.size()) {
    if (!test.empty()) test_engine_.bind(test.features());
    if (!backdoor_test.empty()) backdoor_engine_.bind(backdoor_test.features());
  }

  void score(const ParamVec& params, RoundRecord& record) {
    const MultiEvalModel test{params, test_preds_};
    test_engine_.predict_many({&test, 1});
    record.main_accuracy = confusion_of(test_, test_preds_).accuracy();
    const MultiEvalModel backdoor{params, backdoor_preds_};
    backdoor_engine_.predict_many({&backdoor, 1});
    record.backdoor_accuracy =
        backdoor_accuracy_of(backdoor_test_, backdoor_preds_, target_class_);
  }

 private:
  const Dataset& test_;
  const Dataset& backdoor_test_;
  int target_class_;
  MultiModelEval test_engine_;
  MultiModelEval backdoor_engine_;
  std::vector<std::size_t> test_preds_;
  std::vector<std::size_t> backdoor_preds_;
};

/// Forces every id in `members` into the selection, never displacing a
/// previously-placed member.
void ensure_members(std::vector<std::size_t>& ids,
                    const std::vector<std::size_t>& members) {
  if (members.size() > ids.size()) {
    throw std::invalid_argument("ensure_members: too many members");
  }
  for (std::size_t member : members) {
    if (std::find(ids.begin(), ids.end(), member) != ids.end()) continue;
    for (auto& slot : ids) {
      if (std::find(members.begin(), members.end(), slot) ==
          members.end()) {
        slot = member;
        break;
      }
    }
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::uint64_t seed) {
  // Fail on impossible defender configs (q unreachable, degenerate
  // window) before any training happens.
  if (config.defense_enabled) {
    validate_feedback_config(config.feedback,
                             config.scenario.clients_per_round);
  }
  Rng rng(seed);
  Scenario scenario = build_scenario(config.scenario, rng);
  FlServer server(scenario.arch, scenario.fl, rng.next_u64());

  // Stable-model scenario: centralized pre-training stands in for the
  // paper's 10,000 clean FL rounds (DESIGN.md §2).
  if (config.stable_start) {
    TrainConfig pre;
    pre.epochs = config.pretrain_epochs;
    pre.batch_size = 64;
    pre.sgd.learning_rate = 0.05f;
    Rng pre_rng = rng.fork();
    train_sgd(server.global_model(), scenario.task.train.features(),
              scenario.task.train.labels(), pre, pre_rng);
  }

  BaffleDefense defense(scenario.arch, config.feedback,
                        scenario.server_holdout);
  defense.on_commit(server.version(), server.global_model().parameters());

  // Attacker wiring. The attacker's clean pool is its shard plus the
  // configured auxiliary samples (see ExperimentConfig).
  const std::size_t attacker = scenario.attacker_id;
  Dataset attacker_clean = scenario.clients[attacker].data();
  if (config.attack_aux_samples > 0 && !attacker_clean.empty()) {
    // Smoothed weights: mostly the attacker's own class mix, plus a
    // floor so it sees at least some of every class it already holds.
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

  std::unique_ptr<MaliciousUpdateProvider> malicious;
  std::unique_ptr<AdaptiveProvider> adaptive;
  std::unique_ptr<DbaUpdateProvider> dba;
  if (config.use_dba) {
    if (config.schedule.adaptive) {
      throw std::invalid_argument("run_experiment: DBA cannot be adaptive");
    }
    if (scenario.backdoor.kind != BackdoorKind::kTrigger) {
      throw std::invalid_argument(
          "run_experiment: DBA requires a trigger-patch backdoor");
    }
    // Colluders: the m clients with the most data (each needs enough to
    // train a meaningful slice model).
    std::vector<std::size_t> order(scenario.clients.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scenario.clients[a].data().size() >
             scenario.clients[b].data().size();
    });
    std::vector<std::size_t> colluders(
        order.begin(),
        order.begin() + static_cast<std::ptrdiff_t>(config.dba_colluders));
    std::vector<Dataset> colluder_data;
    colluder_data.reserve(colluders.size());
    for (std::size_t id : colluders) {
      colluder_data.push_back(scenario.clients[id].data());
    }
    DbaConfig dcfg;
    dcfg.num_parts = config.dba_colluders;
    dcfg.target_class = scenario.backdoor.target_class;
    dcfg.poison_fraction = config.attack_poison_fraction;
    // Split the replacement boost across the colluders.
    dcfg.per_client_boost =
        replacement.boost / static_cast<double>(config.dba_colluders);
    dcfg.train = replacement.train;
    dba = std::make_unique<DbaUpdateProvider>(
        honest, colluders, std::move(colluder_data),
        trigger_pattern(scenario.task.config), dcfg);
  } else if (config.schedule.adaptive) {
    AdaptiveAttackConfig acfg = config.adaptive;
    acfg.replacement = replacement;
    // Adaptive stealth: lighter poison blend unless caller overrode it.
    if (config.adaptive.replacement.poison_fraction ==
        ModelReplacementConfig{}.poison_fraction) {
      acfg.replacement.poison_fraction =
          std::min(0.2, replacement.poison_fraction);
    }
    adaptive = std::make_unique<AdaptiveProvider>(
        honest, attacker, attacker_clean, scenario.task.backdoor_train, acfg,
        scenario.arch, config.feedback.validator, &defense);
  } else {
    malicious = std::make_unique<MaliciousUpdateProvider>(
        honest, attacker, attacker_clean, scenario.task.backdoor_train,
        replacement);
  }
  UpdateProvider& provider =
      dba ? static_cast<UpdateProvider&>(*dba)
          : (adaptive ? static_cast<UpdateProvider&>(*adaptive)
                      : static_cast<UpdateProvider&>(*malicious));
  std::unordered_set<std::size_t> malicious_ids{attacker};
  if (dba) {
    malicious_ids.clear();
    malicious_ids.insert(dba->colluders().begin(), dba->colluders().end());
  }

  // Transport mode: the same rounds, but every exchange crosses the
  // wire protocol — actors per client, typed frames, exact byte
  // accounting. Bit-identical records by construction (DESIGN.md §13).
  std::optional<InProcTransport> transport;
  std::optional<TransportRoundDriver> driver;
  if (config.transport) {
    transport.emplace();
    driver.emplace(*transport, server, defense, scenario.clients, provider,
                   malicious_ids, config.malicious_vote);
  }

  const ClientSampler sampler(scenario.fl.total_clients,
                              scenario.fl.clients_per_round);
  ExperimentResult result;
  result.rounds.reserve(config.rounds);

  // The round loop as a task graph (DESIGN.md §15). Each round is a
  // train → validate → checkpoint chain; the model-version edge
  // checkpoint[r] → train[r+1] serializes the rounds (and every use of
  // the main `rng`, so the schedule reproduces the serial loop's rng
  // call sequence exactly). With pipelining, round r's accuracy pass is
  // an eval node depending on checkpoint[r]: it overlaps round r+1's
  // work against an immutable snapshot of the committed parameters.
  // eval[r-1] → eval[r] serializes the single accuracy probe and
  // eval[r-2] → train[r] bounds runahead to one outstanding snapshot.
  // Waiting help-drains the shared pool, so run_repeated / sweep cells
  // can nest whole experiments inside pool tasks without deadlock.
  // Accuracy is scored on the committed parameters: inline in the
  // checkpoint without pipelining, in the eval node with it.
  const bool pipeline =
      config.scenario.pipeline_rounds && config.track_accuracy;
  std::optional<AccuracyProbe> probe;
  std::shared_ptr<const ParamVec> committed_params;
  std::vector<std::shared_ptr<const ParamVec>> snapshots;
  if (config.track_accuracy) {
    probe.emplace(scenario.arch, scenario.task.test,
                  scenario.task.backdoor_test, scenario.backdoor.target_class);
    committed_params =
        std::make_shared<const ParamVec>(server.global_model().parameters());
  }
  if (pipeline) snapshots.resize(config.rounds);

  // Round-local state shared by one round's chain nodes; the chain
  // edges serialize every access. Eval nodes touch none of it — they
  // read only their per-round snapshot and record slot.
  struct RoundState {
    std::vector<std::size_t> contributors;
    std::optional<FlServer::Proposal> proposal;
    bool scheduled = false;
    bool injected = false;
    bool active = false;
    FeedbackDecision decision;
    double train_seconds = 0.0;
    double eval_seconds = 0.0;
  } st;

  TaskGraph graph;  // dtor quiesces, so nodes never outlive the locals
  TaskGraph::TaskId prev_checkpoint = TaskGraph::kNoTask;
  TaskGraph::TaskId prev_eval = TaskGraph::kNoTask;       // eval[r-1]
  TaskGraph::TaskId prev_prev_eval = TaskGraph::kNoTask;  // eval[r-2]

  for (std::size_t r = 1; r <= config.rounds; ++r) {
    const auto train = graph.add(
        TaskNodeKind::kTrain,
        [&, r] {
          st.scheduled = config.schedule.is_poison_round(r);
          st.contributors = sampler.sample_round(rng);
          if (st.scheduled) {
            if (dba) {
              ensure_members(st.contributors, dba->colluders());
            } else {
              ensure_member(st.contributors, attacker, rng);
            }
          }
          if (adaptive) adaptive->arm(st.scheduled);
          if (malicious) malicious->arm(st.scheduled);
          if (dba) dba->arm(st.scheduled);

          const auto train_start = std::chrono::steady_clock::now();
          st.proposal = driver ? driver->propose_round(st.contributors, rng)
                               : server.propose_round_with(st.contributors,
                                                           provider, rng);
          st.train_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            train_start)
                  .count();
          MetricsRegistry::global().add_timer("experiment.round_train",
                                              st.train_seconds);
        },
        {prev_checkpoint, prev_prev_eval});

    const auto validate = graph.add(
        TaskNodeKind::kValidate,
        [&, r] {
          st.injected = st.scheduled && (!adaptive || adaptive->submitted());
          if (st.scheduled && adaptive && !adaptive->submitted()) {
            ++result.adaptive_skipped;
          }
          st.active = config.defense_enabled && r >= config.defense_start &&
                      defense.ready();
          st.decision = FeedbackDecision{};
          st.eval_seconds = 0.0;
          if (!st.active) return;
          // Validating set: the contributors (§VI-D optimization) or an
          // independently sampled set (Algorithm 1's original form).
          std::vector<std::size_t> validators =
              config.separate_validators ? sampler.sample_round(rng)
                                         : st.contributors;
          if (config.validator_dropout > 0.0) {
            std::erase_if(validators, [&](std::size_t) {
              return rng.bernoulli(config.validator_dropout);
            });
          }
          const auto eval_start = std::chrono::steady_clock::now();
          st.decision =
              driver ? driver->evaluate(*st.proposal, validators)
                     : defense.evaluate(st.proposal->candidate_params,
                                        validators, scenario.clients,
                                        malicious_ids, config.malicious_vote);
          st.eval_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            eval_start)
                  .count();
          MetricsRegistry::global().add_timer("experiment.round_eval",
                                              st.eval_seconds);
        },
        {train});

    const auto checkpoint = graph.add(
        TaskNodeKind::kCheckpoint,
        [&, r] {
          const bool rejected = st.active && st.decision.reject;
          if (rejected) {
            server.discard(*st.proposal);
            defense.on_reject();
            if (driver) {
              driver->finish_round(*st.proposal, /*committed=*/false,
                                   server.version(), st.decision);
            }
          } else {
            const std::uint64_t committed_version =
                server.commit(*st.proposal);
            defense.on_commit(committed_version,
                              st.proposal->candidate_params);
            if (driver) {
              driver->finish_round(*st.proposal, /*committed=*/true,
                                   committed_version, st.decision);
            }
            if (config.track_accuracy) {
              committed_params = std::make_shared<const ParamVec>(
                  std::move(st.proposal->candidate_params));
            }
          }

          RoundRecord record;
          record.round = r;
          record.defense_active = st.active;
          record.poisoned = st.injected;
          record.rejected = rejected;
          record.reject_votes = st.decision.reject_votes;
          record.num_validators = st.decision.total_voters;
          record.eval_ms = st.eval_seconds * 1e3;
          record.train_ms = st.train_seconds * 1e3;
          if (config.track_accuracy && !pipeline) {
            probe->score(*committed_params, record);
          }
          result.rounds.push_back(record);
          if (pipeline) snapshots[r - 1] = committed_params;

          if (st.injected) {
            InjectionRecord inj;
            inj.round = r;
            inj.adaptive = config.schedule.adaptive;
            inj.alpha = adaptive ? adaptive->alpha() : 1.0;
            inj.rejected = rejected;
            inj.reject_votes = st.decision.reject_votes;
            inj.total_voters = st.decision.total_voters;
            result.injections.push_back(inj);
          }
          st.proposal.reset();
        },
        {validate});

    if (pipeline) {
      const auto eval = graph.add(
          TaskNodeKind::kEval,
          [&, r] {
            const ScopedTimer eval_timer("experiment.round_accuracy");
            MetricsRegistry::global().add_counter(
                "experiment.pipelined_evals");
            // data() + index, not operator[]: later checkpoints
            // push_back concurrently and the reserve above keeps the
            // buffer stable, but only data() is guaranteed not to read
            // the (racing) size bookkeeping.
            RoundRecord* slot = result.rounds.data() + (r - 1);
            const std::shared_ptr<const ParamVec> snapshot =
                std::move(snapshots[r - 1]);
            probe->score(*snapshot, *slot);
          },
          {checkpoint, prev_eval});
      prev_prev_eval = prev_eval;
      prev_eval = eval;
    }
    prev_checkpoint = checkpoint;
  }

  graph.wait_all();
  if (driver) {
    result.comm = driver->tracker().stats();
    result.wire_bytes = driver->wire_bytes();
  }
  result.rates = compute_detection_rates(result.rounds);
  if (!result.rounds.empty() && config.track_accuracy) {
    result.final_main_accuracy = result.rounds.back().main_accuracy;
    result.final_backdoor_accuracy = result.rounds.back().backdoor_accuracy;
  }
  return result;
}

RepeatedResult run_repeated(const ExperimentConfig& config, std::size_t reps,
                            std::uint64_t base_seed) {
  if (reps == 0) throw std::invalid_argument("run_repeated: reps == 0");
  RepeatedResult out;
  out.runs.resize(reps);
  // Each repetition is an independent experiment root on the shared
  // pool; the per-round graphs each experiment builds nest inside these
  // nodes (waiting help-drains, so nesting cannot deadlock).
  TaskGraph graph;
  for (std::size_t i = 0; i < reps; ++i) {
    graph.add(TaskNodeKind::kExperiment,
              [&, i] { out.runs[i] = run_experiment(config, base_seed + i); });
  }
  graph.wait_all();
  std::vector<double> fps, fns;
  fps.reserve(reps);
  fns.reserve(reps);
  for (const auto& run : out.runs) {
    fps.push_back(run.rates.fp_rate);
    fns.push_back(run.rates.fn_rate);
  }
  out.fp = mean_std(fps);
  out.fn = mean_std(fns);
  return out;
}

}  // namespace baffle
