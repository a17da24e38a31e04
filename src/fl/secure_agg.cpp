#include "fl/secure_agg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/primitives.hpp"
#include "util/rng.hpp"

namespace baffle {

namespace {

// Throws unless `ids` holds each id at most once: a repeated id would
// apply (or cancel) its pair masks twice, so they would never cancel.
void require_distinct(std::vector<std::size_t> ids, const char* what) {
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    throw std::invalid_argument(what);
  }
}

}  // namespace

bool SecureAggregation::try_encode(float x, std::uint64_t& out) const {
  const double scaled =
      std::round(static_cast<double>(x) *
                 static_cast<double>(std::uint64_t{1} << config_.frac_bits));
  // Also false for NaN. Within the bound the int64 cast is exact.
  if (!(std::abs(scaled) < 0x1p63)) return false;
  out = static_cast<std::uint64_t>(static_cast<std::int64_t>(scaled));
  return true;
}

std::uint64_t SecureAggregation::encode(float x) const {
  std::uint64_t out = 0;
  if (!try_encode(x, out)) {
    throw std::invalid_argument("encode: value is not finite or |x| * "
                                "2^frac_bits >= 2^63");
  }
  return out;
}

float SecureAggregation::decode_sum(std::uint64_t total) const {
  const auto as_signed = static_cast<std::int64_t>(total);
  return static_cast<float>(
      static_cast<double>(as_signed) /
      static_cast<double>(std::uint64_t{1} << config_.frac_bits));
}

std::uint64_t SecureAggregation::pair_seed(std::size_t a,
                                           std::size_t b) const {
  const std::size_t lo = std::min(a, b), hi = std::max(a, b);
  std::uint64_t s = config_.round_key;
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(lo) + 1));
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(hi) + 1) << 1);
  return s;
}

MaskedVec SecureAggregation::mask_update(
    const ParamVec& update, std::size_t self_id,
    const std::vector<std::size_t>& participants) const {
  if (std::find(participants.begin(), participants.end(), self_id) ==
      participants.end()) {
    throw std::invalid_argument("mask_update: self not in participants");
  }
  require_distinct(participants, "mask_update: duplicate participant id");
  MaskedVec out(update.size());
  for (std::size_t i = 0; i < update.size(); ++i) {
    if (!try_encode(update[i], out[i])) {
      throw std::invalid_argument(
          "mask_update: update[" + std::to_string(i) +
          "] is not finite or |x| * 2^frac_bits >= 2^63");
    }
  }
  for (std::size_t other : participants) {
    if (other == self_id) continue;
    // The lower id adds, the higher id subtracts — so each pair's mask
    // cancels in the sum.
    add_prg_mask(out, pair_seed(self_id, other),
                 /*subtract=*/self_id > other);
  }
  return out;
}

ParamVec SecureAggregation::unmask_sum(
    const std::vector<MaskedVec>& masked,
    const std::vector<std::size_t>& senders,
    const std::vector<std::size_t>& participants, std::size_t vec_len) const {
  if (masked.size() != senders.size()) {
    throw std::invalid_argument("unmask_sum: senders/masked mismatch");
  }
  if (masked.empty()) {
    throw std::invalid_argument("unmask_sum: no masked updates");
  }
  for (const auto& m : masked) {
    if (m.size() != vec_len) {
      throw std::invalid_argument("unmask_sum: vector length mismatch");
    }
  }
  require_distinct(senders, "unmask_sum: duplicate sender id");
  require_distinct(participants, "unmask_sum: duplicate participant id");
  for (std::size_t sender : senders) {
    if (std::find(participants.begin(), participants.end(), sender) ==
        participants.end()) {
      throw std::invalid_argument("unmask_sum: sender not in participants");
    }
  }
  MaskedVec total(vec_len, 0);
  for (const auto& m : masked) add_u64(total, m);
  // Cancel the masks survivors applied against dropped participants: in
  // the real protocol the server recovers these seeds from the Shamir
  // shares held by surviving clients.
  for (std::size_t dropped : participants) {
    if (std::find(senders.begin(), senders.end(), dropped) != senders.end()) {
      continue;
    }
    for (std::size_t survivor : senders) {
      // The survivor applied +mask if survivor < dropped else -mask;
      // undo it.
      add_prg_mask(total, pair_seed(survivor, dropped),
                   /*subtract=*/survivor < dropped);
    }
  }
  ParamVec out(vec_len);
  for (std::size_t i = 0; i < vec_len; ++i) out[i] = decode_sum(total[i]);
  return out;
}

}  // namespace baffle
