#pragma once
// Per-validator memoization of model evaluations: version → ClassErrors
// (a model's per-class error counts, all Algorithm 2 reads of it). History
// models are immutable, so each is evaluated once per validator; the
// candidate's record is *promoted* when its round commits
// (Validator::notify_commit), so no model is evaluated twice.
//
// Each round evicts every version below the window's oldest. That is
// exact — versions strictly increase and the window only moves forward,
// so such an entry can never be read again — and bounds the cache at ℓ+2
// entries: the ℓ+1 window models plus the promoted candidate.

#include <cstdint>
#include <map>

#include "core/error_variation.hpp"

namespace baffle {

class PredictionCache {
 public:
  /// The cached record for `version`, or nullptr. Counts nothing.
  const ClassErrors* find(std::uint64_t version) const;

  /// Scoring-time lookup: counts a hit. The entry must be present —
  /// every version a round reads was deposited before it is scored.
  const ClassErrors& lookup(std::uint64_t version);

  /// Deposits a record evaluated by the engine pass; counts a miss.
  void insert_missed(std::uint64_t version, ClassErrors errors);

  /// Binds a committed candidate's record to its new version, so next
  /// round's history pass hits (`prediction_cache.promotions`).
  void promote(std::uint64_t version, ClassErrors errors);

  /// Drops every entry whose version is below `oldest`.
  void evict_below(std::uint64_t oldest);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t promotions() const { return promotions_; }

 private:
  // Ordered by version, so evict_below erases one prefix.
  std::map<std::uint64_t, ClassErrors> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t promotions_ = 0;
};

}  // namespace baffle
