// BM_DefenseValidate — steady-state cost of one VALIDATE round for the
// incremental cross-round engine (DESIGN.md §12) vs the fresh-recompute
// baseline (`ValidatorConfig::incremental = false`, the pre-engine
// code path), swept over the paper's look-back sizes ℓ.
//
// Each arm drives the same pre-generated model chain through a rolling
// (ℓ+1)-window: validate the candidate, commit it, rotate. The baseline
// re-evaluates the committed model as next round's history.back() and
// rebuilds the O(ℓ²) distance work behind φ and τ every round; the
// incremental arm promotes the candidate's error counts and shifts
// its distance matrix by one row/column. The speedup is only admissible
// because the per-round (vote, φ, τ) triples are bit-identical —
// checked here and reported as parity_ok.
//
// Prints the sweep table and writes BENCH_defense.json. `--smoke` runs
// a single timed round per cell on a smaller validation set (CI gate:
// exit is nonzero whenever parity fails).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <vector>

#include "core/validate.hpp"
#include "data/synth.hpp"

namespace {

using namespace baffle;

constexpr std::size_t kLookbacks[] = {10, 20, 40, 80};
constexpr std::size_t kMaxLookback = 80;

struct BenchSetup {
  Dataset holdout;       // validator's private labelled data D
  MlpConfig arch;
  std::vector<ParamVec> chain;  // model chain: chain[v] is version v
  std::size_t warmup = 2;
  std::size_t timed = 6;
};

BenchSetup make_setup(bool smoke) {
  Rng rng(404);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 1;  // only the test split is used
  cfg.test_per_class = 100;
  const SynthTask task = make_synth_task(cfg, rng);

  BenchSetup s;
  s.arch = MlpConfig{{cfg.dim, 64, cfg.num_classes}, Activation::kRelu};
  Rng sample_rng(9);
  s.holdout = smoke ? task.test.sample(250, sample_rng) : task.test;
  if (smoke) {
    s.warmup = 1;
    s.timed = 1;
  }

  // Random-walk parameter chain: validation cost does not depend on
  // model quality, only on distinct per-class errors per version.
  Mlp model(s.arch);
  model.init(rng);
  ParamVec params = model.parameters();
  const std::size_t total = kMaxLookback + 1 + s.warmup + s.timed;
  s.chain.reserve(total);
  s.chain.push_back(params);
  for (std::size_t v = 1; v < total; ++v) {
    for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.05));
    s.chain.push_back(params);
  }
  return s;
}

struct ArmResult {
  double ms_per_round = 0.0;
  std::vector<ValidationOutcome> outcomes;
  std::uint64_t promotions = 0;
  std::uint64_t misses = 0;
};

ArmResult run_arm(const BenchSetup& s, std::size_t lookback,
                  bool incremental) {
  ValidatorConfig cfg;
  cfg.lookback = lookback;
  cfg.incremental = incremental;
  Validator validator(s.holdout, s.arch, cfg);

  std::deque<GlobalModel> window;
  std::uint64_t version = 0;
  for (; version <= lookback; ++version) {
    window.push_back({version, s.chain[version]});
  }

  ArmResult out;
  double total_ms = 0.0;
  for (std::size_t r = 0; r < s.warmup + s.timed; ++r, ++version) {
    const std::vector<GlobalModel> history(window.begin(), window.end());
    const ParamVec& candidate = s.chain[version];
    const auto t0 = std::chrono::steady_clock::now();
    const ValidationOutcome outcome = validator.validate(candidate, history);
    validator.notify_commit(version, candidate);
    const auto t1 = std::chrono::steady_clock::now();
    if (r >= s.warmup) {
      total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      out.outcomes.push_back(outcome);
    }
    window.push_back({version, candidate});
    while (window.size() > lookback + 1) window.pop_front();
  }
  out.ms_per_round = total_ms / static_cast<double>(s.timed);
  out.promotions = validator.cache().promotions();
  out.misses = validator.cache().misses();
  return out;
}

bool outcomes_identical(const ArmResult& a, const ArmResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const ValidationOutcome& x = a.outcomes[i];
    const ValidationOutcome& y = b.outcomes[i];
    if (x.vote != y.vote || x.phi != y.phi || x.tau != y.tau ||
        x.abstained != y.abstained) {
      return false;
    }
  }
  return true;
}

struct SweepRow {
  std::size_t lookback = 0;
  double baseline_ms = 0.0;
  double incremental_ms = 0.0;
  double speedup = 0.0;
  bool parity_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const BenchSetup setup = make_setup(smoke);
  std::printf("BM_DefenseValidate: %zu validation samples, %zu timed "
              "rounds/cell%s\n",
              setup.holdout.size(), setup.timed, smoke ? " (smoke)" : "");
  std::printf("%8s %14s %16s %9s %8s\n", "lookback", "baseline ms",
              "incremental ms", "speedup", "parity");

  std::vector<SweepRow> rows;
  bool all_parity = true;
  for (const std::size_t ell : kLookbacks) {
    const ArmResult baseline = run_arm(setup, ell, false);
    const ArmResult incremental = run_arm(setup, ell, true);
    SweepRow row;
    row.lookback = ell;
    row.baseline_ms = baseline.ms_per_round;
    row.incremental_ms = incremental.ms_per_round;
    row.speedup = incremental.ms_per_round > 0.0
                      ? baseline.ms_per_round / incremental.ms_per_round
                      : 0.0;
    row.parity_ok = outcomes_identical(baseline, incremental) &&
                    incremental.promotions > 0 &&
                    incremental.misses < baseline.misses;
    all_parity = all_parity && row.parity_ok;
    rows.push_back(row);
    std::printf("%8zu %11.3f ms %13.3f ms %8.2fx %8s\n", row.lookback,
                row.baseline_ms, row.incremental_ms, row.speedup,
                row.parity_ok ? "ok" : "FAIL");
  }

  FILE* f = std::fopen("BENCH_defense.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "defense_bench: cannot write BENCH_defense.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"BM_DefenseValidate\",\n"
               "  \"validator_samples\": %zu,\n"
               "  \"timed_rounds\": %zu,\n"
               "  \"smoke\": %s,\n"
               "  \"sweeps\": [\n",
               setup.holdout.size(), setup.timed, smoke ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(f,
                 "    {\"lookback\": %zu, \"baseline_ms\": %.3f, "
                 "\"incremental_ms\": %.3f, \"speedup\": %.3f, "
                 "\"parity_ok\": %s}%s\n",
                 row.lookback, row.baseline_ms, row.incremental_ms,
                 row.speedup, row.parity_ok ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"parity_ok\": %s\n"
               "}\n",
               all_parity ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_defense.json\n");
  return all_parity ? 0 : 1;
}
