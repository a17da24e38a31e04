#include "core/prediction_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace baffle {
namespace {

/// Record of one sample of class `t` predicted as `p` (3 classes).
ClassErrors errors_with(int t, std::size_t p) {
  const std::vector<int> labels{t};
  const std::vector<std::size_t> preds{p};
  return tally_class_errors(labels, preds, 3);
}

TEST(PredictionCache, MissThenHit) {
  PredictionCache cache;
  EXPECT_EQ(cache.find(7), nullptr);
  cache.insert_missed(7, errors_with(0, 0));
  cache.lookup(7);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PredictionCache, DistinctVersionsEvaluatedSeparately) {
  PredictionCache cache;
  for (std::uint64_t v : {1u, 2u, 3u}) cache.insert_missed(v, errors_with(0, 0));
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PredictionCache, FindReturnsStoredMatrix) {
  PredictionCache cache;
  cache.insert_missed(5, errors_with(1, 2));
  const ClassErrors* found = cache.find(5);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, errors_with(1, 2));
  EXPECT_EQ(found->source_misses[1], 1u);
  EXPECT_EQ(found->target_false[2], 1u);
  EXPECT_EQ(cache.find(6), nullptr);
  EXPECT_EQ(cache.hits(), 0u);  // find counts nothing
}

TEST(PredictionCache, InsertOverwritesSameVersion) {
  PredictionCache cache;
  cache.insert_missed(1, errors_with(0, 0));
  cache.insert_missed(1, errors_with(2, 1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.find(1), errors_with(2, 1));
}

TEST(PredictionCache, PromoteBindsMatrixAndCounts) {
  PredictionCache cache;
  cache.promote(4, errors_with(1, 0));
  EXPECT_EQ(cache.promotions(), 1u);
  ASSERT_NE(cache.find(4), nullptr);
  EXPECT_EQ(*cache.find(4), errors_with(1, 0));
  // A promoted entry is a plain cache entry afterwards: a lookup hits
  // it, and no miss was counted.
  EXPECT_EQ(cache.lookup(4), errors_with(1, 0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(PredictionCache, LookupOfAbsentVersionThrows) {
  PredictionCache cache;
  cache.insert_missed(2, errors_with(0, 0));
  EXPECT_THROW(cache.lookup(3), std::invalid_argument);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PredictionCache, EvictBelowKeepsTheBoundaryVersion) {
  PredictionCache cache;
  for (std::uint64_t v : {3u, 4u, 5u}) cache.insert_missed(v, errors_with(0, 0));
  cache.evict_below(4);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(4), nullptr);
  EXPECT_NE(cache.find(5), nullptr);
  cache.evict_below(4);  // idempotent
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PredictionCache, EvictBelowDropsEveryOlderVersion) {
  PredictionCache cache;
  for (std::uint64_t v = 10; v < 20; ++v) {
    cache.insert_missed(v, errors_with(0, 0));
  }
  cache.promote(20, errors_with(1, 1));
  cache.evict_below(17);
  EXPECT_EQ(cache.size(), 4u);
  for (std::uint64_t v = 10; v < 17; ++v) EXPECT_EQ(cache.find(v), nullptr);
  ASSERT_NE(cache.find(20), nullptr);  // promoted entries are kept too
  // Eviction is not traffic: the counters are untouched.
  EXPECT_EQ(cache.misses(), 10u);
  EXPECT_EQ(cache.promotions(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.evict_below(21);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PredictionCache, EvictedVersionCountsAsMissAgain) {
  PredictionCache cache;
  cache.insert_missed(1, errors_with(0, 0));
  cache.insert_missed(2, errors_with(0, 0));
  cache.evict_below(2);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_THROW(cache.lookup(1), std::invalid_argument);
  // A re-request of an evicted version is evaluated and deposited again.
  cache.insert_missed(1, errors_with(0, 0));
  EXPECT_EQ(cache.misses(), 3u);
  cache.lookup(1);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
}  // namespace baffle
