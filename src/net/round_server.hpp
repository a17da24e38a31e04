#pragma once
// Session-oriented round server: the server half of the wire protocol.
//
// One RoundSession per connected client, persistent across rounds —
// it remembers the newest accepted-model version the client holds
// (synced_version), which is what turns §VI-D's history shipping into
// deltas. The phase methods drive one FL round over those sessions:
//
//   broadcast_training   →  ModelBroadcast(kTraining) to contributors
//   collect_updates      ←  ClientUpdate from each, admission-checked
//   send_validation      →  HistoryDelta + ModelBroadcast(kCandidate)
//   collect_votes        ←  Vote from each validator
//   finish_round         →  RoundResult to every round participant
//
// Collection enforces per-round admission on every inbound frame
// (decodes, type, round number, session identity, duplicates, update
// size); a frame that fails any check is dropped and counted in
// ProtocolStats, never trusted. Stragglers are handled by deadline: a
// client that has not answered when the timeout expires is reported in
// `dropped` and the round proceeds without it — aggregation over the
// responders, and per the paper's footnote 1 an undersized voter set
// simply tallies the votes that did arrive (accept by default).
//
// While waiting, the server helps drain the global thread pool instead
// of blocking, because the simulated clients run as pool tasks (and
// whole experiments nest inside pool tasks under run_repeated).
//
// Byte accounting is exact: every frame sent or received is reported to
// the attached CommTracker at its actually-serialized size, attributed
// by phase (broadcasts → model download, updates → upload, history
// deltas → history, votes/results → control). Inadmissible frames
// still crossed the wire, so their bytes count toward the phase that
// received them.

#include <functional>
#include <unordered_map>

#include "core/history.hpp"
#include "fl/comm.hpp"
#include "net/transport.hpp"
#include "util/sync.hpp"

namespace baffle {

struct RoundServerConfig {
  /// Straggler deadlines per collection phase.
  std::chrono::milliseconds update_timeout{30'000};
  std::chrono::milliseconds vote_timeout{30'000};
};

/// Inbound frames rejected at the protocol boundary, by reason; and the
/// peers that missed a collection deadline.
struct ProtocolStats {
  std::uint64_t decode_errors = 0;     // malformed frame / bad version
  std::uint64_t unexpected_type = 0;   // well-formed but out of phase
  std::uint64_t wrong_round = 0;
  std::uint64_t wrong_client = 0;      // id does not match the session
  std::uint64_t duplicates = 0;        // second update/vote this round
  std::uint64_t bad_update_size = 0;   // update length != model params
  std::uint64_t timeouts = 0;          // expected peers that never answered
  std::uint64_t total_rejected() const {
    return decode_errors + unexpected_type + wrong_round + wrong_client +
           duplicates + bad_update_size;
  }
};

class RoundServer {
 public:
  /// `expected_params` — flat parameter count of the model; admission
  /// rejects updates of any other length.
  RoundServer(RoundServerConfig config, std::size_t expected_params);

  /// Registers (or replaces) the server-side channel for `client_id`.
  void add_session(std::size_t client_id, std::shared_ptr<Channel> channel);
  bool has_session(std::size_t client_id) const;

  /// Exact-byte communication accounting sink; may be null.
  void set_tracker(CommTracker* tracker) { tracker_ = tracker; }

  void broadcast_training(std::uint64_t round, std::uint64_t version,
                          const ParamVec& global,
                          const std::vector<std::size_t>& contributors);

  struct UpdateCollection {
    /// Responders' updates, in the order the ids appeared in `expected`.
    std::vector<ParamVec> updates;
    std::vector<std::size_t> responders;
    std::vector<std::size_t> dropped;  // deadline missed
  };
  UpdateCollection collect_updates(std::uint64_t round,
                                   const std::vector<std::size_t>& expected);

  /// Ships each validator the window entries it is missing (those newer
  /// than its session's synced_version) followed by the candidate, and
  /// advances synced_version to the window head.
  void send_validation(std::uint64_t round, std::uint64_t candidate_version,
                       const ParamVec& candidate, const ModelWindow& window,
                       const std::vector<std::size_t>& validators);

  struct VoteCollection {
    /// Responders' votes, in the order the ids appeared in `expected`.
    std::vector<Vote> votes;
    std::vector<std::size_t> responders;
    std::vector<std::size_t> dropped;
  };
  VoteCollection collect_votes(std::uint64_t round,
                               const std::vector<std::size_t>& expected);

  /// Sends the RoundResult to every id in `participants`; on a commit,
  /// marks each id in `validators` as holding the committed version
  /// (they promote the candidate they already received).
  void finish_round(const RoundResult& result,
                    const std::vector<std::size_t>& participants,
                    const std::vector<std::size_t>& validators);

  /// Snapshot of the admission counters (copied under the lock).
  ProtocolStats protocol_stats() const;

  /// Raw frame bytes that crossed all sessions, both directions, as the
  /// channels counted them — the ground truth CommTracker must match.
  std::uint64_t wire_bytes() const;

  /// Newest accepted version `client_id` holds; kNeverSynced before the
  /// first delta.
  static constexpr std::uint64_t kNeverSynced = ~std::uint64_t{0};
  std::uint64_t synced_version(std::size_t client_id) const;

 private:
  struct Session {
    std::shared_ptr<Channel> channel;
    std::uint64_t synced_version = kNeverSynced;
  };

  Session& session_for(std::size_t client_id) BAFFLE_REQUIRES(mu_);
  void send_frame(std::size_t client_id, const WireMessage& msg,
                  CommCategory category) BAFFLE_REQUIRES(mu_);
  /// One admission-checked poll of `client_id`'s channel. Returns the
  /// decoded message when a frame passed all checks, nullopt when the
  /// queue is empty or the frame was rejected (stats updated).
  std::optional<WireMessage> poll_admissible(std::size_t client_id,
                                             std::uint64_t round,
                                             MsgType expected)
      BAFFLE_REQUIRES(mu_);
  /// The collection loop both phases share: polls every `expected`
  /// session for admissible frames of `type` until each has answered or
  /// `timeout` passes, helping the pool while idle. Slot i holds the
  /// first admissible message from expected[i] (later ones count as
  /// duplicates); each empty slot counts as a timeout.
  std::vector<std::optional<WireMessage>> collect(
      std::uint64_t round, const std::vector<std::size_t>& expected,
      MsgType type, std::chrono::milliseconds timeout);

  RoundServerConfig config_;
  std::size_t expected_params_;
  // Lock order: mu_ before any channel's internal link mutex (channel
  // calls happen under mu_; channels never call back into the server).
  // Collection loops release mu_ before helping the thread pool, so an
  // assisted task can safely reenter the server.
  mutable Mutex mu_;
  std::unordered_map<std::size_t, Session> sessions_ BAFFLE_GUARDED_BY(mu_);
  ProtocolStats stats_ BAFFLE_GUARDED_BY(mu_);
  CommTracker* tracker_ = nullptr;
};

}  // namespace baffle
