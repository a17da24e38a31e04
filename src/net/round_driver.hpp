#pragma once
// TransportRoundDriver: the experiment loop's bridge onto the wire
// protocol. It owns one ClientActor (+ connected channel pair) per
// client that ever participates, and replays each round's three
// exchanges through the RoundServer:
//
//   propose_round  — broadcast the global model to the contributors,
//                    run their training as thread-pool tasks, collect
//                    and admission-check their ClientUpdates, aggregate
//                    the responders through FlServer::aggregate_updates.
//   evaluate       — ship each validator its history delta plus the
//                    candidate, collect Votes, validate them at the
//                    protocol boundary, and apply Algorithm 1's quorum
//                    (the server-side validator votes locally; it never
//                    crosses a wire).
//   finish_round   — deliver the RoundResult to every participant so
//                    actors promote or drop the judged candidate.
//
// Determinism contract: with no stragglers, a transport-driven round is
// bit-identical to the in-process FlServer/BaffleDefense path. The
// driver forks the per-contributor Rngs from the round rng in exactly
// the order propose_round_with does, aggregation runs through the same
// FlServer code, and VALIDATE depends only on (candidate, window,
// shard, config) — all reconstructed exactly on the actor side.
// tests/exp/transport_parity_test locks this in.
//
// With stragglers (a collection deadline expires), the round proceeds
// over the responders: aggregation over the updates that arrived, and —
// per the paper's footnote 1 — a short voter set is tallied as-is, so
// missing votes mean accept-by-default.

#include <future>
#include <memory>
#include <unordered_set>

#include "core/defense.hpp"
#include "net/client_actor.hpp"
#include "net/round_server.hpp"

namespace baffle {

struct TransportRoundConfig {
  RoundServerConfig server;
  std::chrono::milliseconds actor_recv_timeout{30'000};
};

class TransportRoundDriver {
 public:
  /// All references must outlive the driver. `provider` is shared by
  /// every actor (its update_for is thread-safe per the UpdateProvider
  /// contract); ids in `malicious_ids` get actors that apply `strategy`
  /// to their outgoing votes.
  TransportRoundDriver(Transport& transport, FlServer& server,
                       BaffleDefense& defense,
                       const std::vector<FlClient>& clients,
                       UpdateProvider& provider,
                       const std::unordered_set<std::size_t>& malicious_ids,
                       VoteStrategy strategy,
                       TransportRoundConfig config = {});

  /// Training phase over the wire; the drop-in replacement for
  /// FlServer::propose_round_with. `round_rng` advances exactly as in
  /// the in-process path (one fork per contributor, in order).
  FlServer::Proposal propose_round(
      const std::vector<std::size_t>& contributors, Rng& round_rng);

  /// Validation phase over the wire; the drop-in replacement for
  /// BaffleDefense::evaluate for the same candidate and validator set.
  FeedbackDecision evaluate(const FlServer::Proposal& proposal,
                            const std::vector<std::size_t>& validating_ids);

  /// Closes the round towards every participant. `version` is the
  /// committed version on a commit, the unchanged pre-round version on
  /// a reject. Must be called once per round, after commit/discard.
  void finish_round(const FlServer::Proposal& proposal, bool committed,
                    std::uint64_t version, const FeedbackDecision& decision);

  /// Exact per-category byte totals, measured from encoded frames.
  const CommTracker& tracker() const { return tracker_; }
  RoundServer& round_server() { return round_server_; }
  const RoundServer& round_server() const { return round_server_; }
  /// Ground truth the tracker must equal: channel-counted frame bytes.
  std::uint64_t wire_bytes() const { return round_server_.wire_bytes(); }

 private:
  ClientActor& actor_for(std::size_t id);
  /// Joins actor tasks through ThreadPool::help_until_ready (never
  /// parks a worker slot — experiments themselves run as pool tasks
  /// under run_repeated), rethrowing the first actor exception.
  static void join_tasks(std::vector<std::future<void>>& tasks);

  Transport& transport_;
  FlServer& server_;
  BaffleDefense& defense_;
  const std::vector<FlClient>& clients_;
  UpdateProvider& provider_;
  std::unordered_set<std::size_t> malicious_ids_;
  VoteStrategy strategy_;
  TransportRoundConfig config_;
  CommTracker tracker_;
  RoundServer round_server_;
  std::unordered_map<std::size_t, std::unique_ptr<ClientActor>> actors_;
  /// Current round's participants (reset by propose_round, consumed by
  /// finish_round).
  std::vector<std::size_t> round_contributors_;
  std::vector<std::size_t> round_validators_;
};

}  // namespace baffle
