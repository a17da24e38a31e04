#include "core/prediction_cache.hpp"

#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace baffle {

const ClassErrors* PredictionCache::find(std::uint64_t version) const {
  const auto it = entries_.find(version);
  return it == entries_.end() ? nullptr : &it->second;
}

const ClassErrors& PredictionCache::lookup(std::uint64_t version) {
  const ClassErrors* found = find(version);
  BAFFLE_CHECK(found != nullptr, "scored version missing from the cache");
  ++hits_;
  MetricsRegistry::global().add_counter("prediction_cache.hits");
  return *found;
}

void PredictionCache::insert_missed(std::uint64_t version,
                                    ClassErrors errors) {
  ++misses_;
  MetricsRegistry::global().add_counter("prediction_cache.misses");
  entries_.insert_or_assign(version, std::move(errors));
}

void PredictionCache::promote(std::uint64_t version, ClassErrors errors) {
  ++promotions_;
  MetricsRegistry::global().add_counter("prediction_cache.promotions");
  entries_.insert_or_assign(version, std::move(errors));
}

void PredictionCache::evict_below(std::uint64_t oldest) {
  entries_.erase(entries_.begin(), entries_.lower_bound(oldest));
}

}  // namespace baffle
