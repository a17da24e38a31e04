#include "core/validate.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace baffle {

const char* validation_method_name(ValidationMethod method) {
  switch (method) {
    case ValidationMethod::kErrorVariationLof: return "error-variation+LOF";
    case ValidationMethod::kGlobalAccuracyZScore: return "global-accuracy";
    case ValidationMethod::kVariationNormZScore: return "variation+zscore";
  }
  return "?";
}

std::size_t lof_k_for_lookback(std::size_t lookback) {
  return (lookback + 1) / 2;  // ⌈ℓ/2⌉
}

std::size_t tau_window_for_lookback(std::size_t lookback) {
  return lookback / 4;  // ⌊ℓ/4⌋
}

Validator::Validator(Dataset data, MlpConfig arch, ValidatorConfig config)
    : data_(std::move(data)), config_(config), engine_(std::move(arch)) {
  BAFFLE_CHECK(config.lookback >= 2,
               "look-back window must cover at least 2 accepted models");
  BAFFLE_CHECK(config.min_variations >= 1,
               "abstention threshold must require at least one variation");
  BAFFLE_CHECK(!data_.empty(), "validator needs a non-empty dataset");
  engine_.bind(data_.features());
}

// Move transfers the state wholesale without touching either lock:
// moves happen only in single-threaded setup, before any concurrent use
// (class contract above), so there is no capability to hold and the
// `validating_` flag of a moved-from validator is necessarily clear.
Validator::Validator(Validator&& other) noexcept
    BAFFLE_NO_THREAD_SAFETY_ANALYSIS
    : data_(std::move(other.data_)),
      config_(other.config_),
      cache_(std::move(other.cache_)),
      pending_(std::move(other.pending_)),
      engine_(std::move(other.engine_)),
      batch_preds_(std::move(other.batch_preds_)),
      batch_models_(std::move(other.batch_models_)),
      window_keys_(std::move(other.window_keys_)),
      window_points_(std::move(other.window_points_)),
      lof_window_(std::move(other.lof_window_)),
      window_tau_(other.window_tau_),
      window_tau_count_(other.window_tau_count_),
      candidate_row_(std::move(other.candidate_row_)) {}

Validator& Validator::operator=(Validator&& other) noexcept
    BAFFLE_NO_THREAD_SAFETY_ANALYSIS {
  if (this == &other) return *this;
  data_ = std::move(other.data_);
  config_ = other.config_;
  engine_ = std::move(other.engine_);
  cache_ = std::move(other.cache_);
  pending_ = std::move(other.pending_);
  batch_preds_ = std::move(other.batch_preds_);
  batch_models_ = std::move(other.batch_models_);
  window_keys_ = std::move(other.window_keys_);
  window_points_ = std::move(other.window_points_);
  lof_window_ = std::move(other.lof_window_);
  window_tau_ = other.window_tau_;
  window_tau_count_ = other.window_tau_count_;
  candidate_row_ = std::move(other.candidate_row_);
  return *this;
}

void Validator::stash_pending(const ParamVec& candidate,
                              const ClassErrors& errors) {
  if (!config_.incremental) return;
  pending_.emplace(PendingCandidate{candidate, errors});
}

void Validator::notify_commit(std::uint64_t version,
                              const ParamVec& committed) {
  MutexLock lock(mu_);
  // Promotion must be exact: only when the committed parameters are
  // bit-equal to the candidate scored last is its record valid under
  // the new version (deterministic inference ⇒ identical predictions ⇒
  // identical counts).
  if (pending_ && pending_->params == committed) {
    cache_.promote(version, std::move(pending_->errors));
    MetricsRegistry::global().add_counter("validator.candidate_reuse");
  }
  pending_.reset();
}

void Validator::notify_reject() {
  MutexLock lock(mu_);
  pending_.reset();  // a rejected candidate is never promoted
}

namespace {

/// z-score with a degenerate-spread guard: when the history statistic
/// barely moves, any visible jump is an outlier. A non-finite sample
/// spread (e.g. NaN from a degenerate history) also falls back to the
/// floor instead of propagating through std::max.
double guarded_zscore(double value, std::span<const double> history_values) {
  const double m = mean(history_values);
  const double s = stddev(history_values);
  const double floor = 1e-4;
  const double spread = std::isfinite(s) ? std::max(s, floor) : floor;
  return (value - m) / spread;
}

}  // namespace

ValidationOutcome Validator::validate(const ParamVec& candidate,
                                      std::span<const GlobalModel> history) {
  std::vector<HistoryRef> refs;
  refs.reserve(history.size());
  for (const auto& h : history) refs.push_back({h.version, &h.params});
  return validate_refs(candidate, refs);
}

ValidationOutcome Validator::validate(const ParamVec& candidate,
                                      const ModelWindow& history) {
  std::vector<HistoryRef> refs;
  refs.reserve(history.size());
  for (const auto& h : history) refs.push_back({h->version, &h->params});
  return validate_refs(candidate, refs);
}

ValidationOutcome Validator::validate_refs(
    const ParamVec& candidate, std::span<const HistoryRef> history) {
  BAFFLE_CHECK(history.size() <= config_.lookback + 1,
               "validate() takes at most the last l+1 accepted models");
  // Runtime enforcement of the external-serialization contract on the
  // unguarded engine-phase state: a second validate() overlapping this
  // one would share batch_preds_/batch_models_, which no lock protects
  // by design. Every current caller runs one validate per validator at
  // a time (per-validator fan-out, per-actor ownership).
  BAFFLE_CHECK(!validating_.exchange(true, std::memory_order_acquire),
               "concurrent validate() calls on one Validator");
  struct ClearFlag {
    std::atomic<bool>& flag;
    ~ClearFlag() { flag.store(false, std::memory_order_release); }
  } clear_flag{validating_};

  const ScopedTimer timer("validator.validate");
  MetricsRegistry::global().add_counter("validator.validations");

  // Phase 1 (locked): decide what this round must evaluate.
  EvalPlan plan;
  {
    MutexLock lock(mu_);
    plan = plan_round(history);
  }

  // Phase 2 (UNLOCKED): the only expensive step — one batched engine
  // pass, free to fan out across the pool without holding mu_.
  std::vector<ClassErrors> missed;
  run_plan(candidate, history, plan, missed);

  // Phase 3 (locked): deposit and score against a fully-cached window.
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < plan.missed.size(); ++i) {
    cache_.insert_missed(history[plan.missed[i]].version,
                         std::move(missed[i]));
  }
  return score_round(candidate, history, plan);
}

Validator::EvalPlan Validator::plan_round(
    std::span<const HistoryRef> history) {
  // A new round supersedes the previous candidate (the commit/reject
  // notification evidently never arrived — e.g. pure-evaluation
  // callers).
  pending_.reset();

  // Nothing below the window can be read again (prediction_cache.hpp).
  if (!history.empty()) cache_.evict_below(history.front().version);

  EvalPlan plan;
  // A lone history model yields no variation points, so nothing reads
  // its record this round — don't evaluate it (matches the
  // sequential implementation's laziness and its counter trail).
  if (history.size() >= 2) {
    plan.missed.reserve(history.size());
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (cache_.find(history[i].version) == nullptr) plan.missed.push_back(i);
    }
  }

  // The candidate is evaluated only on rounds that will actually score
  // it. This predicate mirrors the abstention check in score_round
  // (m history models ⇒ m−1 variation points, for every method): on an
  // abstaining round the history still gets evaluated — it feeds the
  // incremental window — but the candidate pass is skipped, exactly as
  // the sequential implementation skipped it.
  const std::size_t variations = history.size() < 2 ? 0 : history.size() - 1;
  plan.eval_candidate = variations >= config_.min_variations;
  return plan;
}

void Validator::run_plan(const ParamVec& candidate,
                         std::span<const HistoryRef> history, EvalPlan& plan,
                         std::vector<ClassErrors>& missed) {
  const std::size_t evals = plan.missed.size() + (plan.eval_candidate ? 1 : 0);
  if (evals == 0) return;
  const std::size_t n = data_.size();
  batch_preds_.resize(evals * n);
  batch_models_.clear();
  batch_models_.reserve(evals);
  const auto slot = [&](std::size_t i) {
    return std::span<std::size_t>(batch_preds_).subspan(i * n, n);
  };
  for (std::size_t i = 0; i < plan.missed.size(); ++i) {
    batch_models_.push_back({*history[plan.missed[i]].params, slot(i)});
  }
  if (plan.eval_candidate) {
    batch_models_.push_back({candidate, slot(plan.missed.size())});
  }
  engine_.predict_many(batch_models_);
  MetricsRegistry::global().add_counter("validator.model_materializations",
                                        evals);
  // "Batched" means the engine amortized packing across several history
  // models; a lone miss (steady-state rounds: at most the
  // candidate-turned-history model, and promotion usually covers even
  // that) is counted as a plain materialization only.
  if (plan.missed.size() >= 2) {
    MetricsRegistry::global().add_counter("validator.batched_evals",
                                          plan.missed.size());
  }
  const auto tally = [&](std::size_t i) {
    return tally_class_errors(data_.labels(), slot(i), data_.num_classes());
  };
  missed.reserve(plan.missed.size());
  for (std::size_t i = 0; i < plan.missed.size(); ++i) {
    missed.push_back(tally(i));
  }
  if (plan.eval_candidate) plan.candidate_errors = tally(plan.missed.size());
}

void Validator::sync_window(std::span<const HistoryRef> history) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  if (history.size() >= 2) {
    keys.reserve(history.size() - 1);
    for (std::size_t i = 1; i < history.size(); ++i) {
      keys.emplace_back(history[i - 1].version, history[i].version);
    }
  }
  // Unchanged window (repeat validation, or the previous round was
  // rejected and rolled back): every cached structure is still valid.
  if (keys == window_keys_) return;

  constexpr auto npos = static_cast<std::size_t>(-1);
  const std::size_t m = keys.size();

  // Index of each new key in the outgoing window. The steady-state
  // commit shifts the window by one (new i was old i+1); anything else
  // (warmup growth, lookback change) falls back to a scan.
  std::vector<std::size_t> old_index(m, npos);
  for (std::size_t i = 0; i < m; ++i) {
    if (i + 1 < window_keys_.size() && window_keys_[i + 1] == keys[i]) {
      old_index[i] = i + 1;
      continue;
    }
    for (std::size_t j = 0; j < window_keys_.size(); ++j) {
      if (window_keys_[j] == keys[i]) {
        old_index[i] = j;
        break;
      }
    }
  }

  // Variation points: reuse by key (each key appears at most once,
  // versions being strictly increasing, so moving out is safe), compute
  // only the genuinely new pairs — O(1) per round in steady state.
  std::vector<VariationPoint> points(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (old_index[i] != npos) {
      points[i] = std::move(window_points_[old_index[i]]);
    } else {
      points[i] = error_variation(cache_.lookup(history[i].version),
                                  cache_.lookup(history[i + 1].version));
    }
  }

  // Distance matrix: entries between two retained points carry over
  // (bit-identical — variation_distance is symmetric in IEEE floats);
  // only rows touching a new point are recomputed, O(ℓ) distances per
  // round instead of the O(ℓ²·⌊ℓ/4⌋) the fresh LOF calls redo.
  std::vector<double> dists(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double d =
          (old_index[i] != npos && old_index[j] != npos)
              ? lof_window_.dist(old_index[i], old_index[j])
              : variation_distance(points[i], points[j]);
      dists[i * m + j] = d;
      dists[j * m + i] = d;
    }
  }

  window_keys_ = std::move(keys);
  window_points_ = std::move(points);
  lof_window_.assign(std::move(dists), m);

  // τ = mean leave-one-out LOF of the last ⌊ℓ/4⌋ trusted points. It
  // depends only on the window, so it is computed once per window here
  // and reused for every candidate scored against it.
  window_tau_ = 0.0;
  window_tau_count_ = 0;
  if (m >= config_.min_variations && m >= 1) {
    const std::size_t k = lof_k_for_lookback(m);
    const std::size_t tau_window =
        std::max<std::size_t>(1, tau_window_for_lookback(m));
    double tau_sum = 0.0;
    for (std::size_t i = m - tau_window; i < m; ++i) {
      if (m - 1 < 2) continue;  // mirrors lof_score's 2-point minimum
      tau_sum += lof_score_windowed(lof_window_, lof_window_.row(i), i, k);
      ++window_tau_count_;
    }
    if (window_tau_count_ > 0) {
      window_tau_ = tau_sum / static_cast<double>(window_tau_count_);
    }
  }
}

ValidationOutcome Validator::validate_lof_incremental(
    const ParamVec& candidate, std::span<const HistoryRef> history,
    EvalPlan& plan) {
  ValidationOutcome outcome;
  sync_window(history);

  const std::size_t ell = window_points_.size();  // effective look-back
  if (ell < config_.min_variations) {
    outcome.abstained = true;
    outcome.vote = 0;
    return outcome;
  }
  BAFFLE_DCHECK(ell <= config_.lookback,
                "a window of m models yields at most l variation points");
  const std::size_t k = lof_k_for_lookback(ell);
  BAFFLE_DCHECK(k == (ell + 1) / 2, "Algorithm 2 fixes k = ceil(l/2)");

  // Candidate's variation point v_{ℓ+1} = v(𝒢^ℓ, G, D); its record was
  // produced by the plan's engine pass.
  BAFFLE_CHECK(plan.candidate_errors.has_value(),
               "scored round requires a planned candidate evaluation");
  const ClassErrors& candidate_errors = *plan.candidate_errors;
  const VariationPoint candidate_point = error_variation(
      cache_.lookup(history.back().version), candidate_errors);
  BAFFLE_DCHECK(candidate_point.size() == window_points_.front().size(),
                "candidate and history variation points must share a dim");
  stash_pending(candidate, candidate_errors);

  if (window_tau_count_ == 0) {
    outcome.abstained = true;
    outcome.vote = 0;
    return outcome;
  }
  outcome.tau = window_tau_;

  candidate_row_.resize(ell);
  variation_distances(candidate_point, window_points_, candidate_row_);
  outcome.phi =
      lof_score_windowed(lof_window_, candidate_row_,
                         /*leave_out=*/static_cast<std::size_t>(-1), k);
  outcome.vote =
      outcome.phi > config_.tau_margin * outcome.tau ? 1 : 0;
  return outcome;
}

ValidationOutcome Validator::score_round(
    const ParamVec& candidate, std::span<const HistoryRef> history,
    EvalPlan& plan) {
  if (config_.incremental &&
      config_.method == ValidationMethod::kErrorVariationLof) {
    return validate_lof_incremental(candidate, history, plan);
  }

  ValidationOutcome outcome;

  // Variation points between consecutive accepted models. A history of
  // m models yields m-1 points; with the full ℓ+1 window that is ℓ.
  // The lookups below are cache hits by construction: every miss was
  // listed by plan_round and deposited before scoring.
  std::vector<VariationPoint> variations;
  if (history.size() >= 2) {
    variations.reserve(history.size() - 1);
    for (std::size_t i = 1; i < history.size(); ++i) {
      variations.push_back(error_variation(
          cache_.lookup(history[i - 1].version),
          cache_.lookup(history[i].version)));
    }
  }

  if (variations.size() < config_.min_variations) {
    outcome.abstained = true;
    outcome.vote = 0;
    return outcome;
  }
  BAFFLE_CHECK(plan.candidate_errors.has_value(),
               "scored round requires a planned candidate evaluation");
  const ClassErrors& candidate_errors = *plan.candidate_errors;

  if (config_.method == ValidationMethod::kGlobalAccuracyZScore) {
    // Ablation A1: ignore class structure entirely; look only at the
    // round-to-round change in overall accuracy.
    std::vector<double> deltas;
    deltas.reserve(history.size() - 1);
    for (std::size_t i = 1; i < history.size(); ++i) {
      deltas.push_back(cache_.lookup(history[i].version).accuracy() -
                       cache_.lookup(history[i - 1].version).accuracy());
    }
    const double candidate_delta =
        candidate_errors.accuracy() -
        cache_.lookup(history.back().version).accuracy();
    stash_pending(candidate, candidate_errors);
    // An anomalous accuracy *drop* is the poisoning signal.
    outcome.phi = -guarded_zscore(candidate_delta, deltas);
    outcome.tau = config_.zscore_threshold;
    outcome.vote = outcome.phi > outcome.tau ? 1 : 0;
    return outcome;
  }

  if (config_.method == ValidationMethod::kVariationNormZScore) {
    // Ablation A2: per-class variation points, but a global z-score on
    // the point's norm instead of the local-density LOF test.
    const VariationPoint origin(variations.front().size(), 0.0);
    std::vector<double> norms;
    norms.reserve(variations.size());
    for (const auto& v : variations) {
      norms.push_back(variation_distance(v, origin));
    }
    const VariationPoint candidate_point = error_variation(
        cache_.lookup(history.back().version), candidate_errors);
    stash_pending(candidate, candidate_errors);
    outcome.phi =
        guarded_zscore(variation_distance(candidate_point, origin), norms);
    outcome.tau = config_.zscore_threshold;
    outcome.vote = outcome.phi > outcome.tau ? 1 : 0;
    return outcome;
  }

  const std::size_t ell = variations.size();  // effective look-back
  BAFFLE_DCHECK(ell <= config_.lookback,
                "a window of m models yields at most l variation points");
  const std::size_t k = lof_k_for_lookback(ell);
  BAFFLE_DCHECK(k == (ell + 1) / 2, "Algorithm 2 fixes k = ceil(l/2)");
  const std::size_t tau_window =
      std::max<std::size_t>(1, tau_window_for_lookback(ell));
  BAFFLE_DCHECK(tau_window <= ell,
                "tau is calibrated on trusted points inside the window");

  // Candidate's variation point v_{ℓ+1} = v(𝒢^ℓ, G, D).
  const VariationPoint candidate_point = error_variation(
      cache_.lookup(history.back().version), candidate_errors);
  BAFFLE_DCHECK(candidate_point.size() == variations.front().size(),
                "candidate and history variation points must share a dim");
  stash_pending(candidate, candidate_errors);

  // τ = mean LOF of the last ⌊ℓ/4⌋ trusted points. Each is scored
  // leave-one-out against the remaining ℓ−1 variations so its reference
  // set matches the candidate's (scored against all ℓ): the paper's
  // listing scores trusted points only against their predecessors, but
  // that shrinks their reference sets relative to the candidate's and
  // biases τ low (inflating false positives).
  double tau_sum = 0.0;
  std::size_t tau_count = 0;
  std::vector<VariationPoint> rest;
  rest.reserve(ell - 1);
  for (std::size_t i = ell - tau_window; i < ell; ++i) {
    rest.clear();
    for (std::size_t j = 0; j < ell; ++j) {
      if (j != i) rest.push_back(variations[j]);
    }
    if (rest.size() < 2) continue;
    tau_sum += lof_score(variations[i], rest, k);
    ++tau_count;
  }
  if (tau_count == 0) {
    outcome.abstained = true;
    outcome.vote = 0;
    return outcome;
  }
  outcome.tau = tau_sum / static_cast<double>(tau_count);

  outcome.phi = lof_score(candidate_point, variations, k);
  outcome.vote =
      outcome.phi > config_.tau_margin * outcome.tau ? 1 : 0;
  return outcome;
}

}  // namespace baffle
