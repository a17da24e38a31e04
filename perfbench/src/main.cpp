// baffle_perfbench: end-to-end benchmark of defended FL experiments.
//
//   baffle_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke 1] [--trace-dir DIR]
//
// --trace 0 times whole experiments through run_experiment / run_sweep
// (tracing off) and prints the end-to-end metrics. --trace 1 runs the
// same seed once through run_experiment and once through the traced
// mirror (mirror.hpp), checks that both agree byte for byte, and prints
// the per-layer metrics. Every metric is one line
//
//   metric <name> <value> <unit> [# note]
//
// followed by "result correct=<0|1> attempted=<n> failed=<n>". run.py
// turns those lines into the benchmark's JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/sweep.hpp"
#include "mirror.hpp"
#include "tensor/simd.hpp"
#include "trace.hpp"
#include "util/metrics.hpp"
#include "util/task_graph.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using baffle::ExperimentConfig;
using baffle::ExperimentResult;
using perfbench::Clock;
using perfbench::Span;
using perfbench::Workload;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_dir = ".";
};

/// Experiments started in the timed loop before the deadline is
/// consulted, and set-up-only experiments behind setup_s.
constexpr std::size_t kMinSamples = 3;
constexpr std::size_t kSetupReps = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void metric(const std::string& name, double value, const char* unit,
            const std::string& note = "") {
  std::printf("metric %s %.17g %s%s%s\n", name.c_str(), value, unit,
              note.empty() ? "" : "  # ", note.c_str());
}

/// User + system CPU time of this process.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Aggregate CPU time from /proc/stat, in ticks: the time CPUs were
/// wanted (busy or stolen, i.e. not idle) and the part of it the
/// hypervisor gave to other guests (steal). Zeros where unreadable.
struct CpuTicks {
  double wanted = 0.0;
  double steal = 0.0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.wanted += static_cast<double>(x);
    t.wanted -= static_cast<double>(v[3] + v[4]);  // idle, iowait
    t.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return t;
}

/// Experiments attempted and failed (threw or returned a malformed or
/// non-reproducible result); parity failures of the traced mirror.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool parity_ok = true;

  void fail(const std::string& what) {
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
};

/// Counter / timer values of the global registry, for before-after deltas.
class RegistryDelta {
 public:
  RegistryDelta() : before_(read()) {}

  void stop() { after_ = read(); }
  double counter(const std::string& name) const { return d("c:" + name); }
  double timer_s(const std::string& name) const { return d("t:" + name); }
  double timer_n(const std::string& name) const { return d("n:" + name); }

 private:
  static std::map<std::string, double> read() {
    std::map<std::string, double> out;
    for (const auto& s : baffle::MetricsRegistry::global().snapshot()) {
      if (s.kind == "counter") {
        out["c:" + s.name] = static_cast<double>(s.count);
      } else {
        out["t:" + s.name] = s.total_seconds;
        out["n:" + s.name] = static_cast<double>(s.count);
      }
    }
    return out;
  }
  double d(const std::string& key) const {
    const auto get = [&](const std::map<std::string, double>& m) {
      const auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    return get(after_) - get(before_);
  }

  std::map<std::string, double> before_;
  std::map<std::string, double> after_;
};

bool unit_interval(double x) {
  return std::isfinite(x) && x >= 0.0 && x <= 1.0;
}

/// Output checks on one run_experiment result; empty when it is well formed.
std::string check_result(const ExperimentConfig& cfg,
                         const ExperimentResult& res) {
  if (res.rounds.size() != cfg.rounds) return "rounds.size() != rounds";
  std::size_t poisoned = 0;
  for (std::size_t i = 0; i < res.rounds.size(); ++i) {
    const auto& r = res.rounds[i];
    if (r.round != i + 1) return "round numbers out of order";
    if (!unit_interval(r.main_accuracy) ||
        !unit_interval(r.backdoor_accuracy)) {
      return "accuracy not finite in [0,1] at round " + std::to_string(i + 1);
    }
    if (r.defense_active && r.num_validators == 0) {
      return "defended round without voters";
    }
    if (r.poisoned) ++poisoned;
  }
  if (res.injections.size() != poisoned) return "injections != poisoned rounds";
  const baffle::DetectionRates want =
      baffle::compute_detection_rates(res.rounds);
  if (!unit_interval(res.rates.fp_rate) || !unit_interval(res.rates.fn_rate) ||
      res.rates.fp_rate != want.fp_rate || res.rates.fn_rate != want.fn_rate ||
      res.rates.clean_rounds != want.clean_rounds ||
      res.rates.poisoned_rounds != want.poisoned_rounds) {
    return "detection rates missing or inconsistent";
  }
  if (cfg.rounds > 0 && cfg.rounds >= cfg.defense_start &&
      want.clean_rounds + want.poisoned_rounds == 0) {
    return "no defended round";
  }
  if (cfg.transport && cfg.rounds > 0) {
    if (res.wire_bytes == 0 || res.wire_bytes != res.comm.total_bytes()) {
      return "wire bytes missing or != CommStats total";
    }
  } else if (res.wire_bytes != 0) {
    return "wire bytes without transport";
  }
  return {};
}

std::string check_row(const baffle::SweepRepRow& row) {
  if (!unit_interval(row.rates.fp_rate) || !unit_interval(row.rates.fn_rate) ||
      !unit_interval(row.final_main_accuracy) ||
      !unit_interval(row.final_backdoor_accuracy)) {
    return "sweep row rates or accuracies out of range";
  }
  if (row.rates.clean_rounds + row.rates.poisoned_rounds == 0) {
    return "sweep row without defended rounds";
  }
  return {};
}

baffle::SweepRepRow to_row(const ExperimentResult& run, std::uint64_t seed) {
  baffle::SweepRepRow row;
  row.seed = seed;
  row.rates = run.rates;
  row.final_main_accuracy = run.final_main_accuracy;
  row.final_backdoor_accuracy = run.final_backdoor_accuracy;
  row.adaptive_skipped = run.adaptive_skipped;
  return row;
}

bool same_row(const baffle::SweepRepRow& a, const baffle::SweepRepRow& b) {
  const auto bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.seed == b.seed && bits(a.rates.fp_rate, b.rates.fp_rate) &&
         bits(a.rates.fn_rate, b.rates.fn_rate) &&
         a.rates.clean_rounds == b.rates.clean_rounds &&
         a.rates.poisoned_rounds == b.rates.poisoned_rounds &&
         a.rates.false_positives == b.rates.false_positives &&
         a.rates.false_negatives == b.rates.false_negatives &&
         bits(a.final_main_accuracy, b.final_main_accuracy) &&
         bits(a.final_backdoor_accuracy, b.final_backdoor_accuracy) &&
         a.adaptive_skipped == b.adaptive_skipped;
}

std::vector<baffle::SweepRepRow> flat_rows(const baffle::SweepResult& r) {
  std::vector<baffle::SweepRepRow> rows;
  for (const auto& cell : r.cells) {
    rows.insert(rows.end(), cell.reps.begin(), cell.reps.end());
  }
  return rows;
}

/// One checked run_experiment call.
std::optional<ExperimentResult> attempt(const ExperimentConfig& cfg,
                                        std::uint64_t seed, Tally& tally) {
  ++tally.attempted;
  try {
    ExperimentResult res = baffle::run_experiment(cfg, seed);
    const std::string err = check_result(cfg, res);
    if (err.empty()) return res;
    tally.fail("seed " + std::to_string(seed) + ": " + err);
  } catch (const std::exception& e) {
    tally.fail("seed " + std::to_string(seed) + " threw: " + e.what());
  }
  return std::nullopt;
}

/// Median of kSetupReps set-up-only experiments (rounds = 0).
double measure_setup(const Workload& w, const Options& o, Tally& tally) {
  std::vector<double> setup;
  const std::size_t reps = o.smoke ? 2 : kSetupReps;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    if (attempt(perfbench::with_rounds(w.config, 0),
                w.seeds[i % w.seeds.size()], tally)) {
      setup.push_back(seconds_since(t0));
    }
  }
  return median(setup);
}

struct LatencySamples {
  std::vector<double> round_ms;    // train_ms + eval_ms of every round
  std::vector<double> verdict_ms;  // eval_ms of every defended round
  std::vector<double> fp, fn;      // per experiment

  void add(const ExperimentResult& res) {
    for (const auto& r : res.rounds) {
      round_ms.push_back(r.train_ms + r.eval_ms);
      if (r.defense_active) verdict_ms.push_back(r.eval_ms);
    }
    fp.push_back(res.rates.fp_rate);
    fn.push_back(res.rates.fn_rate);
  }
};

std::string count_note(const std::vector<double>& v, double q) {
  const auto beyond = static_cast<std::size_t>(
      std::floor(static_cast<double>(v.size()) * (1.0 - q)));
  return "n=" + std::to_string(v.size()) + ", " + std::to_string(beyond) +
         " beyond" + (beyond < 10 ? " (fewer than 10)" : "");
}

void print_latency(const LatencySamples& s) {
  metric("round_ms_p50", percentile(s.round_ms, 0.50), "ms",
         count_note(s.round_ms, 0.50));
  metric("round_ms_p99", percentile(s.round_ms, 0.99), "ms",
         count_note(s.round_ms, 0.99));
  metric("verdict_ms_p50", percentile(s.verdict_ms, 0.50), "ms",
         count_note(s.verdict_ms, 0.50));
  metric("fp_rate", mean(s.fp), "ratio",
         "mean over " + std::to_string(s.fp.size()) + " experiments");
  metric("fn_rate", mean(s.fn), "ratio",
         "mean over " + std::to_string(s.fn.size()) + " experiments");
}

void print_common(const Tally& tally) {
  metric("peak_rss_mb", peak_rss_mb(), "MB");
  metric("failed_frac",
         ratio(static_cast<double>(tally.failed),
               static_cast<double>(tally.attempted)),
         "ratio",
         std::to_string(tally.failed) + " of " +
             std::to_string(tally.attempted) + " experiments");
}

// ---------------------------------------------------------------------------
// Untraced runs: end-to-end metrics.

void run_single(const Workload& w, const Options& o, Tally& tally) {
  // Untimed warm-up, so pool start-up, thread-local workspaces, dispatch
  // and the allocator's high-water mark are not charged to the first
  // sample; it is also seed 0's reference result.
  std::map<std::uint64_t, ExperimentResult> first;
  if (auto res = attempt(w.config, w.seeds.front(), tally)) {
    first.emplace(w.seeds.front(), std::move(*res));
  }
  const double setup_s = measure_setup(w, o, tally);
  std::vector<double> wall;
  LatencySamples lat;
  std::uint64_t wire_bytes = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMinSamples || seconds_since(start) < o.seconds;
       ++i) {
    const std::uint64_t seed = w.seeds[i % w.seeds.size()];
    const auto t0 = Clock::now();
    std::optional<ExperimentResult> res = attempt(w.config, seed, tally);
    const double dt = seconds_since(t0);
    if (!res) continue;
    const auto [it, fresh] = first.try_emplace(seed, *res);
    if (!fresh) {
      const std::string diff =
          perfbench::result_mismatch(it->second, *res, true);
      if (!diff.empty()) {
        tally.fail("seed " + std::to_string(seed) +
                   " not reproducible: " + diff);
        continue;
      }
    }
    std::printf("sample %zu seed=%llu wall_s=%.6f\n", i,
                static_cast<unsigned long long>(seed), dt);
    wall.push_back(dt);
    lat.add(*res);
    wire_bytes += res->wire_bytes;
  }
  const double experiment_s = median(wall);
  const double rounds = static_cast<double>(w.config.rounds);
  metric("experiment_s", experiment_s, "s",
         "median of " + std::to_string(wall.size()) + " run_experiment calls");
  metric("setup_s", setup_s, "s", "median run_experiment with rounds = 0");
  metric("rounds_per_s", ratio(rounds, experiment_s - setup_s), "1/s",
         "rounds / (experiment_s - setup_s)");
  metric("experiments_per_s",
         ratio(static_cast<double>(wall.size()), sum(wall)), "1/s");
  print_latency(lat);
  metric("wire_mb_per_round",
         ratio(static_cast<double>(wire_bytes) * 1e-6,
               rounds * static_cast<double>(wall.size())),
         "MB", "exact frame bytes; 0 without transport");
  print_common(tally);
}

/// The grid's cells x reps as experiment roots on one TaskGraph, the
/// fan-out run_sweep uses, keeping every ExperimentResult (run_sweep
/// keeps only per-rep summaries, so round latencies come from here).
std::vector<std::optional<ExperimentResult>> fan_out(
    const std::vector<baffle::SweepCell>& cells, std::size_t reps,
    Tally& tally) {
  std::vector<std::optional<ExperimentResult>> out(cells.size() * reps);
  std::vector<Tally> tallies(out.size());
  {
    baffle::TaskGraph graph;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t i = 0; i < reps; ++i) {
        const std::size_t k = c * reps + i;
        graph.add(baffle::TaskNodeKind::kExperiment, [&, c, i, k] {
          out[k] = attempt(cells[c].config, cells[c].seed + i, tallies[k]);
        });
      }
    }
    graph.wait_all();
  }
  for (const Tally& t : tallies) {
    tally.attempted += t.attempted;
    tally.failed += t.failed;
  }
  return out;
}

void run_grid(const Workload& w, const Options& o, Tally& tally) {
  const std::vector<baffle::SweepCell> cells = baffle::enumerate_cells(w.sweep);
  const std::size_t experiments = cells.size() * w.sweep.reps;
  attempt(cells[0].config, cells[0].seed, tally);  // untimed warm-up
  const double setup_s = measure_setup(w, o, tally);
  std::optional<std::vector<baffle::SweepRepRow>> reference;
  std::vector<double> sweep_wall;
  LatencySamples lat;
  const auto start = Clock::now();
  // Even iterations time run_sweep; odd ones fan the same grid out
  // through run_experiment for its round records.
  for (std::size_t i = 0;
       i < 2 * kMinSamples || seconds_since(start) < o.seconds; ++i) {
    if (i % 2 == 0) {
      tally.attempted += experiments;
      const auto t0 = Clock::now();
      std::vector<baffle::SweepRepRow> rows;
      try {
        rows = flat_rows(baffle::run_sweep(w.sweep));
      } catch (const std::exception& e) {
        tally.failed += experiments - 1;
        tally.fail(std::string("run_sweep threw: ") + e.what());
        continue;
      }
      const double dt = seconds_since(t0);
      bool ok = true;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        std::string err = check_row(rows[k]);
        if (err.empty() && reference && !same_row(rows[k], (*reference)[k])) {
          err = "sweep row not reproducible";
        }
        if (!err.empty()) {
          tally.fail("sweep row " + std::to_string(k) + ": " + err);
          ok = false;
        }
      }
      if (!reference) reference = rows;
      if (ok) sweep_wall.push_back(dt);
    } else {
      const auto results = fan_out(cells, w.sweep.reps, tally);
      for (std::size_t k = 0; k < results.size(); ++k) {
        if (!results[k]) continue;
        const std::size_t c = k / w.sweep.reps;
        const std::uint64_t seed = cells[c].seed + k % w.sweep.reps;
        if (reference &&
            !same_row(to_row(*results[k], seed), (*reference)[k])) {
          tally.fail("run_experiment row " + std::to_string(k) +
                     " differs from run_sweep's");
          continue;
        }
        lat.add(*results[k]);
      }
    }
  }
  const double per_sweep = median(sweep_wall);
  const double n = static_cast<double>(experiments);
  metric("experiment_s", per_sweep / n, "s",
         "median run_sweep wall / " + std::to_string(experiments) +
             " experiments, over " + std::to_string(sweep_wall.size()) +
             " sweeps");
  metric("setup_s", setup_s, "s", "median run_experiment with rounds = 0");
  metric("rounds_per_s",
         ratio(n * static_cast<double>(w.config.rounds), per_sweep), "1/s",
         "all rounds of a sweep / its wall time");
  metric("experiments_per_s", ratio(n, per_sweep), "1/s");
  print_latency(lat);
  metric("wire_mb_per_round", 0.0, "MB", "no transport in this workload");
  print_common(tally);
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer metrics.

/// Spans with their self times and lookups by name and leg.
class SpanSet {
 public:
  explicit SpanSet(std::vector<Span> spans)
      : spans_(std::move(spans)), self_(perfbench::self_ms(spans_)) {
    for (std::size_t i = 0; i < spans_.size(); ++i) index_[spans_[i].id] = i;
  }

  const std::vector<Span>& spans() const { return spans_; }
  double self(std::size_t i) const { return self_[i]; }
  const Span* parent(const Span& s) const {
    const auto it = index_.find(s.parent);
    return it == index_.end() ? nullptr : &spans_[it->second];
  }
  std::vector<double> durations(const char* name, std::uint32_t leg) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.leg == leg && std::strcmp(s.name, name) == 0) out.push_back(s.ms());
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<double> self_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
};

bool structural(const Span& s) { return std::strncmp(s.name, "exp.", 4) == 0; }

bool is_update(const Span& s) {
  return std::strcmp(s.name, "nn.client_update") == 0 ||
         std::strcmp(s.name, "attack.update") == 0;
}

/// What one traced run measured besides its spans.
struct TracedRun {
  double untraced_ms = 0.0;  // the run_experiment / run_sweep reference
  std::int64_t traced_begin_ns = 0;
  std::int64_t traced_end_ns = 0;
  bool transport = false;
  std::size_t rounds = 0;        // rounds of the wire leg, for MB/round
  baffle::CommStats wire_comm;   // CommStats of the wire leg
  std::size_t experiments = 0;
  double reference_cpu_s = 0.0;  // process CPU time of the reference
  double setup_cpu_s = 0.0;      // ... of one set-up-only experiment
  RegistryDelta reference_delta;  // around the reference run
  RegistryDelta mirror_delta;     // around the main (leg 0) mirror
};

void check_probe(const perfbench::MirrorOutput& m, Tally& tally) {
  const double chance =
      1.0 / static_cast<double>(std::max<std::size_t>(1, m.num_classes));
  if (!unit_interval(m.final_main_accuracy) ||
      !unit_interval(m.final_backdoor_accuracy) ||
      m.final_main_accuracy < 2.0 * chance) {
    tally.fail("final global model accuracy " +
               std::to_string(m.final_main_accuracy) + " not above chance");
  }
}

void parity(const std::string& what, const std::string& diff, Tally& tally) {
  if (diff.empty()) {
    std::printf("parity %s: identical\n", what.c_str());
    return;
  }
  tally.parity_ok = false;
  std::printf("parity %s: MISMATCH (%s)\n", what.c_str(), diff.c_str());
}

ExperimentConfig flip_transport(ExperimentConfig cfg) {
  cfg.transport = !cfg.transport;
  return cfg;
}

/// The experiments a workload runs: one, or the grid's cells x reps.
std::vector<std::pair<ExperimentConfig, std::uint64_t>> experiments_of(
    const Workload& w) {
  if (!w.grid) return {{w.config, w.seeds.front()}};
  std::vector<std::pair<ExperimentConfig, std::uint64_t>> out;
  for (const baffle::SweepCell& cell : baffle::enumerate_cells(w.sweep)) {
    for (std::size_t i = 0; i < w.sweep.reps; ++i) {
      out.emplace_back(cell.config, cell.seed + i);
    }
  }
  return out;
}

/// The traced run: a warm-up, one set-up-only experiment (CPU time), the
/// untraced reference through run_experiment / run_sweep, the mirror of
/// every experiment one at a time (leg 0; serial, so help-draining never
/// runs one experiment inside another's spans), and the first experiment
/// again with transport flipped (leg 1). Both legs must match the
/// reference.
void run_traced(const Workload& w, Tally& tally, perfbench::Tracer& tracer,
                TracedRun& run) {
  const auto jobs = experiments_of(w);
  const auto& [first_cfg, first_seed] = jobs.front();
  attempt(first_cfg, first_seed, tally);  // untimed warm-up
  double cpu0 = process_cpu_s();
  attempt(perfbench::with_rounds(first_cfg, 0), first_seed, tally);
  run.setup_cpu_s = process_cpu_s() - cpu0;
  run.transport = first_cfg.transport;
  run.rounds = first_cfg.rounds;
  run.experiments = jobs.size();

  std::optional<ExperimentResult> reference;  // single experiments only
  std::vector<baffle::SweepRepRow> rows;
  run.reference_delta = RegistryDelta();
  cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  if (w.grid) {
    tally.attempted += jobs.size();
    try {
      rows = flat_rows(baffle::run_sweep(w.sweep));
    } catch (const std::exception& e) {
      tally.fail(std::string("run_sweep threw: ") + e.what());
    }
  } else {
    reference = attempt(first_cfg, first_seed, tally);
    if (reference) rows.push_back(to_row(*reference, first_seed));
  }
  run.untraced_ms = seconds_since(t0) * 1e3;
  run.reference_cpu_s = process_cpu_s() - cpu0;
  run.reference_delta.stop();
  if (rows.size() != jobs.size()) {
    tally.parity_ok = false;
    return;
  }

  tally.attempted += jobs.size() + 1;
  try {
    std::vector<perfbench::MirrorOutput> mirrored;
    run.mirror_delta = RegistryDelta();
    run.traced_begin_ns = tracer.now_ns();
    for (const auto& [cfg, seed] : jobs) {
      const perfbench::SpanScope cell(tracer, "exp.cell", perfbench::kNoSpan,
                                      0, 0);
      mirrored.push_back(
          perfbench::mirror_experiment(cfg, seed, {&tracer, 0, cell.id()}));
    }
    run.traced_end_ns = tracer.now_ns();
    run.mirror_delta.stop();
    const perfbench::MirrorOutput flipped = perfbench::mirror_experiment(
        flip_transport(first_cfg), first_seed,
        {&tracer, 1, perfbench::kNoSpan});
    run.wire_comm =
        run.transport ? mirrored.front().result.comm : flipped.result.comm;

    std::string diff;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      check_probe(mirrored[k], tally);
      if (diff.empty() &&
          !same_row(to_row(mirrored[k].result, jobs[k].second), rows[k])) {
        diff = "row " + std::to_string(k);
      }
    }
    if (reference) {
      parity("mirror vs run_experiment",
             perfbench::result_mismatch(*reference, mirrored.front().result,
                                        true),
             tally);
      parity("transport-flipped mirror vs run_experiment",
             perfbench::result_mismatch(*reference, flipped.result, false),
             tally);
    } else {
      parity("mirrored rows vs run_sweep", diff, tally);
      parity("transport-flipped mirror vs run_sweep row 0",
             same_row(to_row(flipped.result, first_seed), rows.front())
                 ? ""
                 : "row 0",
             tally);
    }
  } catch (const std::exception& e) {
    tally.fail(std::string("mirror threw: ") + e.what());
    tally.parity_ok = false;
  }
}

void print_layers(const SpanSet& set, const TracedRun& run) {
  const std::uint32_t main = 0;
  const std::uint32_t inproc = run.transport ? 1 : 0;
  const std::uint32_t wire = run.transport ? 0 : 1;
  const double threads =
      static_cast<double>(baffle::ThreadPool::global().size());
  const RegistryDelta& md = run.mirror_delta;
  const RegistryDelta& rd = run.reference_delta;

  metric("data.build_scenario_ms",
         mean(set.durations("data.build_scenario", main)), "ms",
         "mean per experiment");
  metric("nn.pretrain_ms", mean(set.durations("nn.pretrain", main)), "ms",
         "mean per experiment");
  metric("tensor.gemm_large_ms", md.timer_s("gemm.large") * 1e3, "ms",
         std::to_string(static_cast<long long>(md.timer_n("gemm.large"))) +
             " large GEMMs");
  metric("tensor.gemm_large_gflop", md.counter("gemm.large_flops") * 1e-9,
         "GFLOP",
         "at " + std::to_string(ratio(md.counter("gemm.large_flops") * 1e-9,
                                      md.timer_s("gemm.large"))) +
             " GFLOP/s");

  const auto updates = set.durations("nn.client_update", main);
  metric("nn.client_update_ms_p50", median(updates), "ms",
         "n=" + std::to_string(updates.size()));
  metric("nn.client_update_ms_sum", sum(updates), "ms");

  std::vector<double> waits;
  double busy_ms = 0.0;
  for (const Span& s : set.spans()) {
    if (s.leg != inproc || !is_update(s)) continue;
    const Span* p = set.parent(s);
    if (p == nullptr || std::strcmp(p->name, "fl.updates") != 0) continue;
    waits.push_back(static_cast<double>(s.start_ns - p->start_ns) * 1e-6);
    busy_ms += s.ms();
  }
  const double phase_ms = sum(set.durations("fl.updates", inproc));
  metric("fl.update_wait_ms", mean(waits), "ms",
         "dispatch to update start, mean of " + std::to_string(waits.size()));
  metric("fl.update_parallel_eff", ratio(busy_ms, threads * phase_ms), "ratio",
         "sum of update spans / (threads x update-phase wall)");
  metric("fl.aggregate_ms", mean(set.durations("fl.aggregate", inproc)), "ms",
         "mean per round, incl. secure-agg masking");
  metric("fl.checkpoint_ms", mean(set.durations("fl.checkpoint", main)), "ms",
         "mean per round: commit/discard + on_commit/on_reject");
  const auto attack = set.durations("attack.update", main);
  metric("attack.update_ms", mean(attack), "ms",
         "mean of " + std::to_string(attack.size()) + " injected updates");
  const auto acc = set.durations("nn.accuracy", main);
  metric("nn.accuracy_ms", mean(acc), "ms",
         "mean of " + std::to_string(acc.size()) +
             " test+backdoor passes (final-model probe when tracking is off)");

  const auto evals = set.durations("core.evaluate", inproc);
  metric("core.evaluate_ms", mean(evals), "ms",
         "BaffleDefense::evaluate, mean of " + std::to_string(evals.size()));
  const double validations = md.counter("validator.validations");
  const double hits = md.counter("prediction_cache.hits");
  const double misses = md.counter("prediction_cache.misses");
  metric("core.validate_ms_mean",
         ratio(md.timer_s("validator.validate") * 1e3,
               md.timer_n("validator.validate")),
         "ms");
  metric("core.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
         "hits / lookups");
  metric("core.misses_per_validation", ratio(misses, validations), "count");
  metric("core.candidate_reuse_ratio",
         ratio(md.counter("validator.candidate_reuse"), validations), "ratio",
         "promoted candidate evaluations / validations");
  metric("nn.multi_eval_run_ms",
         ratio(md.timer_s("multi_eval.run") * 1e3,
               md.timer_n("multi_eval.run")),
         "ms", "mean per MultiModelEval run");
  metric("nn.multi_eval_tiles", md.counter("multi_eval.tiles"), "count");
  metric("nn.model_materializations",
         md.counter("validator.model_materializations"), "count");

  metric("net.propose_ms", mean(set.durations("net.propose", wire)), "ms",
         "vs fl.propose " +
             std::to_string(mean(set.durations("fl.propose", inproc))) +
             " ms in process");
  metric("net.evaluate_ms", mean(set.durations("net.evaluate", wire)), "ms",
         "vs core.evaluate " + std::to_string(mean(evals)) + " ms in process");
  metric("net.finish_round_ms", mean(set.durations("net.finish_round", wire)),
         "ms");
  const double rounds = static_cast<double>(run.rounds);
  const baffle::CommStats& c = run.wire_comm;
  metric("net.download_mb_per_round",
         ratio(static_cast<double>(c.model_download_bytes) * 1e-6, rounds),
         "MB");
  metric("net.upload_mb_per_round",
         ratio(static_cast<double>(c.update_upload_bytes) * 1e-6, rounds),
         "MB");
  metric("net.history_mb_per_round",
         ratio(static_cast<double>(c.history_bytes) * 1e-6, rounds), "MB");
  metric("net.control_mb_per_round",
         ratio(static_cast<double>(c.control_bytes) * 1e-6, rounds), "MB");

  metric("util.help_drained", rd.counter("thread_pool.help_drained"), "count",
         "during the untraced reference run");
  metric("util.graph_tasks", rd.counter("task_graph.tasks"), "count",
         "during the untraced reference run");
  const auto cells = set.durations("exp.cell", main);
  metric("exp.cell_ms_p50", median(cells), "ms",
         "n=" + std::to_string(cells.size()) + " experiment roots");

  // Unattributed: traced wall time not covered by any top-level layer
  // span (a layer span whose parent is an exp.* span or none).
  std::vector<std::pair<std::int64_t, std::int64_t>> top;
  std::map<std::string, double> layer_self;
  double total_self = 0.0;
  for (std::size_t i = 0; i < set.spans().size(); ++i) {
    const Span& s = set.spans()[i];
    if (s.leg != main) continue;
    layer_self[s.layer()] += set.self(i);
    total_self += set.self(i);
    const Span* p = set.parent(s);
    if (!structural(s) && (p == nullptr || structural(*p))) {
      top.emplace_back(s.start_ns, s.end_ns);
    }
  }
  const double traced_ms =
      static_cast<double>(run.traced_end_ns - run.traced_begin_ns) * 1e-6;
  const double unattributed =
      traced_ms - static_cast<double>(perfbench::covered_ns(top)) * 1e-6;
  metric("exp.unattributed_ms", unattributed, "ms",
         "of " + std::to_string(traced_ms) + " ms traced wall");
  metric("exp.trace_overhead_ms", traced_ms - run.untraced_ms, "ms",
         "traced " + std::to_string(traced_ms) + " - untraced " +
             std::to_string(run.untraced_ms) + "; accuracy spans total " +
             std::to_string(sum(acc)) +
             " ms (serial here, pipelined untraced)");

  std::printf(
      "layer shares (self time over all leg-0 span time + "
      "unattributed):\n");
  const double denom = total_self + std::max(0.0, unattributed);
  for (const auto& [layer, ms] : layer_self) {
    std::printf("  share %-8s %6.2f%%  %12.3f ms\n", layer.c_str(),
                100.0 * ratio(ms, denom), ms);
  }
  std::printf("  share %-8s %6.2f%%  %12.3f ms\n", "unattr.",
              100.0 * ratio(std::max(0.0, unattributed), denom), unattributed);

  // The measured reasons behind each workload.
  const double round_main = sum(set.durations("exp.round", main));
  const double train_main = sum(set.durations("fl.propose", main)) +
                            sum(set.durations("net.propose", main));
  std::printf("reason train_phase_share %.4f  # client-update phase (train_ms:"
              " updates + aggregation) / exp.round wall (vision_l20 wants >= "
              "0.5); updates alone %.4f\n",
              ratio(train_main, round_main),
              ratio(sum(set.durations("fl.updates", main)), round_main));
  double defended_round_ms = 0.0;
  {
    std::map<std::uint32_t, double> round_ms;
    for (const Span& s : set.spans()) {
      if (s.leg == inproc && std::strcmp(s.name, "exp.round") == 0) {
        round_ms[s.id] = s.ms();
      }
    }
    for (const Span& s : set.spans()) {
      if (s.leg == inproc && std::strcmp(s.name, "core.evaluate") == 0) {
        defended_round_ms += round_ms[s.parent];
      }
    }
  }
  std::printf("reason verdict_share %.4f  # core.evaluate / defended exp.round "
              "wall (femnist_l80 wants >= 0.5)\n",
              ratio(sum(evals), defended_round_ms));
  const double wire_round = sum(set.durations("exp.round", wire));
  const double inproc_round = sum(set.durations("exp.round", inproc));
  if (run.transport) {
    std::printf("reason net_share %.4f  # (wire - in-process round wall) / "
                "wire round wall (femnist_l80_wire wants >= 0.333)\n",
                ratio(wire_round - inproc_round, wire_round));
  } else {
    std::printf("reason net_share n/a  # rounds of this workload never "
                "cross the wire (flipped leg covers %zu rounds)\n",
                set.durations("exp.round", wire).size());
  }
  const double cpu_per_experiment =
      ratio(run.reference_cpu_s, static_cast<double>(run.experiments));
  std::printf("reason setup_share %.4f  # set-up CPU %.1f ms / CPU %.1f ms "
              "per untraced experiment (vision_grid wants >= 0.5)\n",
              ratio(run.setup_cpu_s, cpu_per_experiment),
              run.setup_cpu_s * 1e3, cpu_per_experiment * 1e3);
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--smoke") {
      o.smoke = value == "1";
    } else if (key == "--trace-dir") {
      o.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: baffle_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke 1] [--trace-dir DIR]\n");
    return 2;
  }
  const std::optional<Workload> w =
      perfbench::make_workload(o.workload, o.seed, o.smoke);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }

  std::printf("stamp workload=%s seed=%llu nproc=%u pool_threads=%zu isa=%s "
              "build=%s trace=%d smoke=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(o.seed),
              std::thread::hardware_concurrency(),
              baffle::ThreadPool::global().size(),
              baffle::simd::isa_name(baffle::simd::active_isa()),
              PERFBENCH_BUILD_TYPE, o.trace ? 1 : 0, o.smoke ? 1 : 0);

  const CpuTicks ticks_before = read_cpu_ticks();
  Tally tally;
  if (!o.trace) {
    if (w->grid) {
      run_grid(*w, o, tally);
    } else {
      run_single(*w, o, tally);
    }
  } else {
    perfbench::Tracer tracer;
    TracedRun run;
    run_traced(*w, tally, tracer, run);
    const SpanSet set(tracer.spans());
    print_layers(set, run);
    const std::string path = o.trace_dir + "/trace-" + w->name + "-seed" +
                             std::to_string(o.seed) + ".csv";
    std::printf("trace %zu spans written to %s\n", set.spans().size(),
                tracer.write_csv(path) ? path.c_str() : "(write failed)");
  }
  // Time the hypervisor gave this machine's CPUs to others slows every
  // number above; runs with a large share are not comparable.
  const CpuTicks ticks_after = read_cpu_ticks();
  std::printf("stamp steal_pct=%.2f\n",
              100.0 * ratio(ticks_after.steal - ticks_before.steal,
                            ticks_after.wanted - ticks_before.wanted));
  const bool correct = tally.failed == 0 && tally.parity_ok;
  std::printf("result correct=%d attempted=%zu failed=%zu\n", correct ? 1 : 0,
              tally.attempted, tally.failed);
  return 0;
}
