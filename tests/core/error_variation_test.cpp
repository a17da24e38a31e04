#include "core/error_variation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "metrics/confusion.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

ClassErrors errors_from(std::initializer_list<std::pair<int, int>> pairs,
                        std::size_t classes = 3) {
  std::vector<int> labels;
  std::vector<std::size_t> preds;
  for (const auto& [t, p] : pairs) {
    labels.push_back(t);
    preds.push_back(static_cast<std::size_t>(p));
  }
  return tally_class_errors(labels, preds, classes);
}

TEST(ErrorVariation, IdenticalModelsGiveZeroVector) {
  const auto e = errors_from({{0, 0}, {1, 2}, {2, 2}});
  const VariationPoint v = error_variation(e, e);
  ASSERT_EQ(v.size(), 6u);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(ErrorVariation, DimensionIsTwiceNumClasses) {
  const auto e = errors_from({{0, 0}}, 5);
  EXPECT_EQ(error_variation(e, e).size(), 10u);
}

TEST(ErrorVariation, ImprovementIsPositive) {
  // Older model misreads class 0; newer fixes it. v^s_0 = err_old -
  // err_new > 0.
  const auto older = errors_from({{0, 1}, {1, 1}, {2, 2}, {0, 0}});
  const auto newer = errors_from({{0, 0}, {1, 1}, {2, 2}, {0, 0}});
  const VariationPoint v = error_variation(older, newer);
  EXPECT_DOUBLE_EQ(v[0], 0.25);   // source-focused, class 0
  EXPECT_DOUBLE_EQ(v[3 + 1], 0.25);  // target-focused, class 1
}

TEST(ErrorVariation, RegressionIsNegative) {
  const auto older = errors_from({{0, 0}, {1, 1}});
  const auto newer = errors_from({{0, 1}, {1, 1}});
  const VariationPoint v = error_variation(older, newer);
  EXPECT_DOUBLE_EQ(v[0], -0.5);
}

TEST(ErrorVariation, BackdooredModelShiftsSourceAndTargetClasses) {
  // Clean model: everything right. Backdoored model: class 1 (source)
  // samples get labelled 2 (target) — the label-flip signature.
  std::vector<int> labels;
  std::vector<std::size_t> clean_preds, poisoned_preds;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) {
      labels.push_back(c);
      clean_preds.push_back(static_cast<std::size_t>(c));
      poisoned_preds.push_back(static_cast<std::size_t>(c == 1 ? 2 : c));
    }
  }
  const VariationPoint v =
      error_variation(tally_class_errors(labels, clean_preds, 3),
                      tally_class_errors(labels, poisoned_preds, 3));
  EXPECT_LT(v[1], 0.0);       // source class error increased
  EXPECT_LT(v[3 + 2], 0.0);   // target class absorbs wrong predictions
  EXPECT_DOUBLE_EQ(v[0], 0.0);  // untouched classes unchanged
}

TEST(ErrorVariation, MismatchedClassCountsThrow) {
  const ClassErrors a = tally_class_errors({}, {}, 2);
  const ClassErrors b = tally_class_errors({}, {}, 3);
  EXPECT_THROW(error_variation(a, b), std::invalid_argument);
}

/// One model's (labels, predictions) on a random dataset; class
/// `empty_class` never occurs as a true label.
struct Sample {
  std::vector<int> labels;
  std::vector<std::size_t> preds;
};

Sample random_sample(Rng& rng, std::size_t classes, std::size_t n,
                     std::size_t empty_class) {
  Sample s;
  while (s.labels.size() < n) {
    const auto y = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(classes) - 1));
    if (y == empty_class) continue;
    s.labels.push_back(static_cast<int>(y));
    // Mostly right, sometimes any class (including the empty one).
    s.preds.push_back(rng.uniform() < 0.7
                          ? y
                          : static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(classes) - 1)));
  }
  return s;
}

ConfusionMatrix matrix_of(const Sample& s, std::size_t classes) {
  ConfusionMatrix cm(classes);
  for (std::size_t i = 0; i < s.labels.size(); ++i) {
    cm.record(s.labels[i], static_cast<int>(s.preds[i]));
  }
  return cm;
}

/// The pre-record reference: v(f, f', D) from two full confusion
/// matrices' source- and target-focused error vectors.
VariationPoint matrix_variation(const ConfusionMatrix& older,
                                const ConfusionMatrix& newer) {
  const auto src_old = older.source_focused_errors();
  const auto src_new = newer.source_focused_errors();
  const auto tgt_old = older.target_focused_errors();
  const auto tgt_new = newer.target_focused_errors();
  VariationPoint v;
  for (std::size_t y = 0; y < older.num_classes(); ++y) {
    v.push_back(src_old[y] - src_new[y]);
  }
  for (std::size_t y = 0; y < older.num_classes(); ++y) {
    v.push_back(tgt_old[y] - tgt_new[y]);
  }
  return v;
}

TEST(ErrorVariation, RecordMatchesConfusionMatrixBitForBit) {
  Rng rng(2024);
  for (const std::size_t classes : {2u, 10u, 62u}) {
    SCOPED_TRACE(classes);
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t n = 40 + 37 * static_cast<std::size_t>(trial);
      const std::size_t empty = static_cast<std::size_t>(trial) % classes;
      const Sample older = random_sample(rng, classes, n, empty);
      const Sample newer = random_sample(rng, classes, n, empty);
      const ClassErrors e_old =
          tally_class_errors(older.labels, older.preds, classes);
      const ClassErrors e_new =
          tally_class_errors(newer.labels, newer.preds, classes);
      const ConfusionMatrix m_old = matrix_of(older, classes);
      const ConfusionMatrix m_new = matrix_of(newer, classes);
      EXPECT_EQ(e_old.source_misses[empty], 0u);

      const VariationPoint got = error_variation(e_old, e_new);
      const VariationPoint want = matrix_variation(m_old, m_new);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "component " << i;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(e_old.accuracy()),
                std::bit_cast<std::uint64_t>(m_old.accuracy()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(e_new.accuracy()),
                std::bit_cast<std::uint64_t>(m_new.accuracy()));
    }
  }
}

TEST(ErrorVariation, EmptyDatasetMatchesConfusionMatrix) {
  const ClassErrors e = tally_class_errors({}, {}, 4);
  const ConfusionMatrix m(4);
  EXPECT_EQ(e.total, 0u);
  EXPECT_EQ(e.accuracy(), m.accuracy());
  EXPECT_EQ(error_variation(e, e), matrix_variation(m, m));
}

TEST(ErrorVariation, TallyRejectsOutOfRangeLabelsAndPredictions) {
  const std::vector<int> good{0, 1, 2};
  const std::vector<std::size_t> preds{0, 1, 2};
  EXPECT_NO_THROW(tally_class_errors(good, preds, 3));
  const std::vector<int> negative{0, -1, 2};
  EXPECT_THROW(tally_class_errors(negative, preds, 3), std::invalid_argument);
  const std::vector<int> too_big{0, 3, 2};
  EXPECT_THROW(tally_class_errors(too_big, preds, 3), std::invalid_argument);
  const std::vector<std::size_t> bad_pred{0, 1, 3};
  EXPECT_THROW(tally_class_errors(good, bad_pred, 3), std::invalid_argument);
  const std::vector<std::size_t> short_preds{0, 1};
  EXPECT_THROW(tally_class_errors(good, short_preds, 3),
               std::invalid_argument);
}

TEST(VariationDistance, EuclideanBasics) {
  const VariationPoint a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(variation_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(variation_distance(a, a), 0.0);
}

TEST(VariationDistance, Symmetric) {
  const VariationPoint a{1.0, -2.0, 0.5}, b{0.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(variation_distance(a, b), variation_distance(b, a));
}

TEST(VariationDistance, DimMismatchThrows) {
  EXPECT_THROW(variation_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
