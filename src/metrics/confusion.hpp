#pragma once
// Confusion matrix and the per-class error rates of Section V.
//
//   source-focused error err_D(f)^{y->*}: fraction of samples in D whose
//     TRUE class is y and which f misclassifies.
//   target-focused error err_D(f)^{*->y}: fraction of samples in D which
//     f wrongly assigns TO class y.
//
// Both are normalized by |D| (fractions of the whole dataset, matching
// the paper's definition "the fraction of samples in D which ...").

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/multi_eval.hpp"

namespace baffle {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::size_t num_classes);

  /// counts[true][predicted] += 1
  void record(int true_label, int predicted_label);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t total() const { return total_; }
  std::size_t count(int true_label, int predicted_label) const;

  double accuracy() const;
  double error() const { return 1.0 - accuracy(); }

  /// err^{y->*} for every class y (length num_classes).
  std::vector<double> source_focused_errors() const;

  /// err^{*->y} for every class y (length num_classes).
  std::vector<double> target_focused_errors() const;

  /// Per-class recall error: misclassified fraction *of class y's own
  /// samples* (used for Figure 2's per-class error plot).
  std::vector<double> per_class_error_rates() const;

 private:
  std::size_t num_classes_;
  std::size_t total_ = 0;
  std::vector<std::size_t> counts_;  // row-major [true][pred]
};

/// Tallies `data`'s labels against `predictions`, one per row of
/// `data` (throws std::invalid_argument on a length mismatch).
ConfusionMatrix confusion_of(const Dataset& data,
                             std::span<const std::size_t> predictions);

/// Evaluates `model` on `data` (predict_once through `ws`) and tallies
/// the confusion matrix.
ConfusionMatrix evaluate_confusion(const Mlp& model, const Dataset& data,
                                   MlpEvalWorkspace& ws);

/// Convenience overload with a throwaway workspace.
ConfusionMatrix evaluate_confusion(const Mlp& model, const Dataset& data);

}  // namespace baffle
