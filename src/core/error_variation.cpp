#include "core/error_variation.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace baffle {

namespace {

/// A count as a fraction of |D| — the integer ratio ConfusionMatrix's
/// source/target-focused errors compute, so rates are bit-identical.
double rate(std::size_t count, std::size_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(count) / static_cast<double>(total);
}

}  // namespace

double ClassErrors::accuracy() const {
  std::size_t wrong = 0;
  for (const std::size_t m : source_misses) wrong += m;
  return rate(total - wrong, total);
}

ClassErrors tally_class_errors(std::span<const int> labels,
                               std::span<const std::size_t> predictions,
                               std::size_t num_classes) {
  BAFFLE_CHECK(labels.size() == predictions.size(),
               "one prediction per labelled sample");
  ClassErrors errors{std::vector<std::size_t>(num_classes),
                     std::vector<std::size_t>(num_classes), labels.size()};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const int y = labels[i];
    const std::size_t p = predictions[i];
    BAFFLE_CHECK(y >= 0 && static_cast<std::size_t>(y) < num_classes,
                 "true label out of class range");
    BAFFLE_CHECK(p < num_classes, "predicted label out of class range");
    if (p != static_cast<std::size_t>(y)) {
      ++errors.source_misses[static_cast<std::size_t>(y)];
      ++errors.target_false[p];
    }
  }
  return errors;
}

VariationPoint error_variation(const ClassErrors& older,
                               const ClassErrors& newer) {
  BAFFLE_CHECK(older.num_classes() == newer.num_classes(),
               "error_variation operands must share the class set");
  const std::size_t classes = older.num_classes();
  VariationPoint v(2 * classes);
  for (std::size_t y = 0; y < classes; ++y) {
    v[y] = rate(older.source_misses[y], older.total) -
           rate(newer.source_misses[y], newer.total);
    v[classes + y] = rate(older.target_false[y], older.total) -
                     rate(newer.target_false[y], newer.total);
  }
  return v;
}

double variation_distance(const VariationPoint& a, const VariationPoint& b) {
  BAFFLE_CHECK(a.size() == b.size(),
               "variation_distance operands must share a dimension");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

void variation_distances(const VariationPoint& point,
                         std::span<const VariationPoint> points,
                         std::span<double> out) {
  BAFFLE_CHECK(out.size() == points.size(),
               "variation_distances output must match the point count");
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = variation_distance(point, points[i]);
  }
}

}  // namespace baffle
