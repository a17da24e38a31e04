#pragma once
// Per-class error-variation vectors (Eq. 2–3, Section V).
//
// For consecutive models f (older, accepted) and f' (newer) evaluated on
// the same dataset D:
//   v^s(f, f', D, y) = err_D(f)^{y→*} − err_D(f')^{y→*}
//   v^t(f, f', D, y) = err_D(f)^{*→y} − err_D(f')^{*→y}
// and the error-variation point is v(f, f', D) = [v^s, v^t] ∈ R^{2|Y|}.
// Under benign training these points cluster (the global model improves
// gradually); a freshly injected backdoor shifts one or a few classes'
// rates and lands the point far from the cluster. Both rates are
// fractions of all of D, so a model's evaluation enters Algorithm 2 only
// through ClassErrors — the validator's whole per-model record.

#include <cstddef>
#include <span>
#include <vector>

namespace baffle {

using VariationPoint = std::vector<double>;

/// One model's per-class error counts on a dataset D.
struct ClassErrors {
  std::vector<std::size_t> source_misses;  // [y] = err^{y→*}·|D|
  std::vector<std::size_t> target_false;   // [y] = err^{*→y}·|D|
  std::size_t total = 0;  // |D|

  std::size_t num_classes() const { return source_misses.size(); }
  /// (total − Σ source_misses) / total; 0 on an empty D.
  double accuracy() const;
  bool operator==(const ClassErrors&) const = default;
};

/// Tallies ClassErrors from per-sample true labels and predictions
/// (equal lengths, every entry in [0, num_classes)).
ClassErrors tally_class_errors(std::span<const int> labels,
                               std::span<const std::size_t> predictions,
                               std::size_t num_classes);

/// Builds v(f, f', D) from the two models' error counts on D.
VariationPoint error_variation(const ClassErrors& older,
                               const ClassErrors& newer);

/// Euclidean distance between variation points (LOF metric).
double variation_distance(const VariationPoint& a, const VariationPoint& b);

/// Distances from `point` to each entry of `points`, written to `out`
/// (one row of a pairwise distance matrix; |out| must equal |points|).
void variation_distances(const VariationPoint& point,
                         std::span<const VariationPoint> points,
                         std::span<double> out);

}  // namespace baffle
