#include "net/round_driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace baffle {

TransportRoundDriver::TransportRoundDriver(
    Transport& transport, FlServer& server, BaffleDefense& defense,
    const std::vector<FlClient>& clients, UpdateProvider& provider,
    const std::unordered_set<std::size_t>& malicious_ids,
    VoteStrategy strategy, TransportRoundConfig config)
    : transport_(transport),
      server_(server),
      defense_(defense),
      clients_(clients),
      provider_(provider),
      malicious_ids_(malicious_ids),
      strategy_(strategy),
      config_(config),
      tracker_(clients.size(),
               server.global_model().num_params() * sizeof(float),
               defense.config().validator.lookback + 1,
               /*compression=*/1.0),
      round_server_(config.server, server.global_model().num_params()) {
  round_server_.set_tracker(&tracker_);
}

ClientActor& TransportRoundDriver::actor_for(std::size_t id) {
  if (const auto it = actors_.find(id); it != actors_.end()) {
    return *it->second;
  }
  if (id >= clients_.size()) {
    throw std::out_of_range("TransportRoundDriver: unknown client id");
  }
  DuplexChannel duplex = transport_.connect();
  round_server_.add_session(id, duplex.server);
  ClientActorConfig actor_config;
  actor_config.client_id = id;
  actor_config.lookback = defense_.config().validator.lookback;
  actor_config.malicious = malicious_ids_.contains(id);
  actor_config.strategy = strategy_;
  actor_config.recv_timeout = config_.actor_recv_timeout;
  auto [it, inserted] = actors_.try_emplace(
      id, std::make_unique<ClientActor>(
              actor_config, server_.arch(), clients_[id].data(),
              defense_.config().validator, &provider_,
              std::move(duplex.client)));
  return *it->second;
}

void TransportRoundDriver::join_tasks(std::vector<std::future<void>>& tasks) {
  for (auto& task : tasks) {
    ThreadPool::global().help_until_ready(task);
    task.get();
  }
  tasks.clear();
}

FlServer::Proposal TransportRoundDriver::propose_round(
    const std::vector<std::size_t>& contributors, Rng& round_rng) {
  if (contributors.empty()) {
    throw std::invalid_argument("propose_round: no contributors");
  }
  tracker_.add_round();
  round_contributors_ = contributors;
  round_validators_.clear();
  const std::uint64_t round = server_.current_round() + 1;

  // Same pre-fork discipline (and therefore the same rng stream) as
  // FlServer::propose_round_with: one fork per contributor, in order.
  std::vector<Rng> client_rngs;
  client_rngs.reserve(contributors.size());
  for (std::size_t i = 0; i < contributors.size(); ++i) {
    client_rngs.push_back(round_rng.fork());
  }

  for (std::size_t id : contributors) actor_for(id);  // sessions ready
  round_server_.broadcast_training(round, server_.version(),
                                   server_.global_model().parameters(),
                                   contributors);

  std::vector<std::future<void>> tasks;
  tasks.reserve(contributors.size());
  for (std::size_t i = 0; i < contributors.size(); ++i) {
    ClientActor& actor = actor_for(contributors[i]);
    tasks.push_back(ThreadPool::global().submit(
        [&actor, rng = client_rngs[i]]() mutable {
          actor.handle_training(std::move(rng));
        }));
  }
  auto collected = round_server_.collect_updates(round, contributors);
  join_tasks(tasks);

  return server_.aggregate_updates(std::move(collected.updates),
                                   collected.responders);
}

FeedbackDecision TransportRoundDriver::evaluate(
    const FlServer::Proposal& proposal,
    const std::vector<std::size_t>& validating_ids) {
  const FeedbackConfig& feedback = defense_.config();
  const bool use_clients = feedback.mode != DefenseMode::kServerOnly;
  const ModelWindow window = defense_.current_window();

  RoundServer::VoteCollection collected;
  if (use_clients && !validating_ids.empty()) {
    round_validators_ = validating_ids;
    for (std::size_t id : validating_ids) actor_for(id);
    // The candidate's version-on-commit, so validators can promote it
    // into their windows without a second download.
    round_server_.send_validation(proposal.round, server_.version() + 1,
                                  proposal.candidate_params, window,
                                  validating_ids);
    std::vector<std::future<void>> tasks;
    tasks.reserve(validating_ids.size());
    for (std::size_t id : validating_ids) {
      ClientActor& actor = actor_for(id);
      tasks.push_back(ThreadPool::global().submit(
          [&actor] { actor.handle_validation(); }));
    }
    collected = round_server_.collect_votes(proposal.round, validating_ids);
    join_tasks(tasks);
  }

  ValidationOutcome server_outcome;
  const bool use_server = feedback.mode != DefenseMode::kClientsOnly &&
                          defense_.server_validator() != nullptr;
  if (use_server) {
    server_outcome = defense_.server_validator()->validate(
        proposal.candidate_params, window);
  }

  // Wire votes → tally, through the protocol-boundary guard. Missing
  // voters (deadline) are simply absent — footnote 1's accept-by-
  // default behavior falls out of tallying the votes that arrived.
  std::vector<int> votes;
  votes.reserve(collected.votes.size());
  std::size_t abstentions = 0;
  for (const Vote& vote : collected.votes) {
    votes.push_back(static_cast<int>(vote.vote));
    if (vote.abstained != 0) ++abstentions;
  }
  validate_decoded_votes(votes, collected.responders);
  const bool server_abstained = use_server && server_outcome.abstained;
  if (server_abstained) ++abstentions;

  FeedbackDecision decision =
      decide_quorum(feedback.mode, feedback.quorum, votes,
                    collected.responders, server_outcome.vote,
                    server_abstained);
  decision.abstentions = abstentions;
  return decision;
}

void TransportRoundDriver::finish_round(const FlServer::Proposal& proposal,
                                        bool committed, std::uint64_t version,
                                        const FeedbackDecision& decision) {
  RoundResult result;
  result.round = proposal.round;
  result.committed = committed ? 1 : 0;
  result.version = version;
  result.reject_votes = static_cast<std::uint32_t>(decision.reject_votes);
  result.total_voters = static_cast<std::uint32_t>(decision.total_voters);

  std::vector<std::size_t> participants = round_contributors_;
  for (std::size_t id : round_validators_) {
    if (std::find(participants.begin(), participants.end(), id) ==
        participants.end()) {
      participants.push_back(id);
    }
  }
  round_server_.finish_round(result, participants, round_validators_);
  // Actors consume the result inline: promotion/rollback is cheap and
  // ordering it here keeps the round loop free of trailing tasks.
  for (std::size_t id : participants) {
    actor_for(id).handle_round_result();
  }
  round_contributors_.clear();
  round_validators_.clear();
}

}  // namespace baffle
