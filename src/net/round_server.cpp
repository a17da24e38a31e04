#include "net/round_server.hpp"

#include <stdexcept>
#include <thread>

#include "util/thread_pool.hpp"

namespace baffle {

namespace {

/// Waiting posture for collection loops: run one queued pool task if
/// any (the simulated clients are pool tasks — blocking a worker slot
/// on them could deadlock a small pool), otherwise yield.
void assist_or_yield() {
  if (!ThreadPool::global().try_run_one()) std::this_thread::yield();
}

}  // namespace

RoundServer::RoundServer(RoundServerConfig config,
                         std::size_t expected_params)
    : config_(config), expected_params_(expected_params) {
  if (expected_params_ == 0) {
    throw std::invalid_argument("RoundServer: model has no parameters");
  }
}

void RoundServer::add_session(std::size_t client_id,
                              std::shared_ptr<Channel> channel) {
  if (channel == nullptr) {
    throw std::invalid_argument("RoundServer: null channel");
  }
  MutexLock lock(mu_);
  sessions_[client_id] = Session{std::move(channel), kNeverSynced};
}

bool RoundServer::has_session(std::size_t client_id) const {
  MutexLock lock(mu_);
  return sessions_.contains(client_id);
}

RoundServer::Session& RoundServer::session_for(std::size_t client_id) {
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) {
    throw std::out_of_range("RoundServer: no session for client");
  }
  return it->second;
}

std::uint64_t RoundServer::synced_version(std::size_t client_id) const {
  MutexLock lock(mu_);
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) {
    throw std::out_of_range("RoundServer: no session for client");
  }
  return it->second.synced_version;
}

void RoundServer::send_frame(std::size_t client_id, const WireMessage& msg,
                             CommCategory category) {
  WireBytes frame = encode_frame(msg);
  if (tracker_) tracker_->add_bytes(category, frame.size());
  session_for(client_id).channel->send(std::move(frame));
}

void RoundServer::broadcast_training(
    std::uint64_t round, std::uint64_t version, const ParamVec& global,
    const std::vector<std::size_t>& contributors) {
  ModelBroadcast msg;
  msg.round = round;
  msg.version = version;
  msg.purpose = ModelPurpose::kTraining;
  msg.params = global;  // one copy per encode below; params stay put
  MutexLock lock(mu_);
  for (std::size_t id : contributors) {
    send_frame(id, msg, CommCategory::kModelDownload);
  }
}

std::optional<WireMessage> RoundServer::poll_admissible(
    std::size_t client_id, std::uint64_t round, MsgType expected) {
  Session& session = session_for(client_id);
  auto frame = session.channel->try_recv();
  if (!frame) return std::nullopt;
  const CommCategory category = expected == MsgType::kClientUpdate
                                    ? CommCategory::kUpdateUpload
                                    : CommCategory::kControl;
  if (tracker_) tracker_->add_bytes(category, frame->size());

  WireMessage msg;
  try {
    msg = decode_frame(*frame);
  } catch (const std::exception&) {
    ++stats_.decode_errors;
    return std::nullopt;
  }

  const auto type =
      static_cast<MsgType>(static_cast<std::uint8_t>(msg.index()) + 1);
  if (type != expected) {
    ++stats_.unexpected_type;
    return std::nullopt;
  }
  std::uint64_t msg_round = 0;
  std::uint64_t msg_client = 0;
  if (const auto* update = std::get_if<ClientUpdate>(&msg)) {
    msg_round = update->round;
    msg_client = update->client_id;
    if (update->update.size() != expected_params_) {
      ++stats_.bad_update_size;
      return std::nullopt;
    }
  } else if (const auto* vote = std::get_if<Vote>(&msg)) {
    msg_round = vote->round;
    msg_client = vote->client_id;
  } else {
    ++stats_.unexpected_type;  // clients never send other types
    return std::nullopt;
  }
  if (msg_round != round) {
    ++stats_.wrong_round;
    return std::nullopt;
  }
  if (msg_client != client_id) {
    ++stats_.wrong_client;
    return std::nullopt;
  }
  return msg;
}

std::vector<std::optional<WireMessage>> RoundServer::collect(
    std::uint64_t round, const std::vector<std::size_t>& expected,
    MsgType type, std::chrono::milliseconds timeout) {
  std::vector<std::optional<WireMessage>> slots(expected.size());
  std::vector<bool> pending(expected.size(), true);
  std::size_t remaining = expected.size();
  const auto deadline = std::chrono::steady_clock::now() + timeout;

  while (remaining > 0) {
    bool progressed = false;
    {
      // Hold the server lock only for the poll sweep; it is released
      // before helping the pool below, so an assisted task (a nested
      // experiment driving its own server) can never deadlock on mu_.
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (!pending[i]) continue;
        // Drain everything queued on this session before marking it
        // answered, so a duplicate sent in the same burst is seen (and
        // rejected) rather than left to poison the next round's phase.
        while (auto msg = poll_admissible(expected[i], round, type)) {
          progressed = true;
          if (slots[i]) {
            ++stats_.duplicates;
            continue;
          }
          slots[i] = std::move(msg);
        }
        if (slots[i]) {
          pending[i] = false;
          --remaining;
        }
      }
    }
    if (remaining == 0) break;
    if (std::chrono::steady_clock::now() >= deadline) break;
    if (!progressed) assist_or_yield();
  }

  MutexLock lock(mu_);
  for (const auto& slot : slots) {
    if (!slot) ++stats_.timeouts;
  }
  return slots;
}

RoundServer::UpdateCollection RoundServer::collect_updates(
    std::uint64_t round, const std::vector<std::size_t>& expected) {
  auto slots =
      collect(round, expected, MsgType::kClientUpdate, config_.update_timeout);
  UpdateCollection out;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (slots[i]) {
      out.updates.push_back(
          std::move(std::get<ClientUpdate>(*slots[i]).update));
      out.responders.push_back(expected[i]);
    } else {
      out.dropped.push_back(expected[i]);
    }
  }
  return out;
}

void RoundServer::send_validation(std::uint64_t round,
                                  std::uint64_t candidate_version,
                                  const ParamVec& candidate,
                                  const ModelWindow& window,
                                  const std::vector<std::size_t>& validators) {
  ModelBroadcast candidate_msg;
  candidate_msg.round = round;
  candidate_msg.version = candidate_version;
  candidate_msg.purpose = ModelPurpose::kCandidate;
  candidate_msg.params = candidate;

  MutexLock lock(mu_);
  for (std::size_t id : validators) {
    Session& session = session_for(id);
    HistoryDelta delta;
    delta.round = round;
    for (const auto& entry : window) {
      if (session.synced_version != kNeverSynced &&
          entry->version <= session.synced_version) {
        continue;
      }
      delta.entries.push_back(
          HistoryDelta::Entry{entry->version, entry->params});
    }
    send_frame(id, delta, CommCategory::kHistory);
    if (!window.empty()) {
      session.synced_version = window.back()->version;
    }
    send_frame(id, candidate_msg, CommCategory::kModelDownload);
  }
}

RoundServer::VoteCollection RoundServer::collect_votes(
    std::uint64_t round, const std::vector<std::size_t>& expected) {
  auto slots = collect(round, expected, MsgType::kVote, config_.vote_timeout);
  VoteCollection out;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (slots[i]) {
      out.votes.push_back(std::get<Vote>(*slots[i]));
      out.responders.push_back(expected[i]);
    } else {
      out.dropped.push_back(expected[i]);
    }
  }
  return out;
}

void RoundServer::finish_round(const RoundResult& result,
                               const std::vector<std::size_t>& participants,
                               const std::vector<std::size_t>& validators) {
  MutexLock lock(mu_);
  for (std::size_t id : participants) {
    send_frame(id, result, CommCategory::kControl);
  }
  if (result.committed != 0) {
    // Validators promote the candidate they already hold into their
    // window, so their sync level advances to the committed version.
    for (std::size_t id : validators) {
      session_for(id).synced_version = result.version;
    }
  }
}

ProtocolStats RoundServer::protocol_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::uint64_t RoundServer::wire_bytes() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, session] : sessions_) {
    total += session.channel->bytes_sent() + session.channel->bytes_received();
  }
  return total;
}

}  // namespace baffle
