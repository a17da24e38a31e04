#pragma once
// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer's public API, timed from the
// benchmark's side of the boundary: name ("<layer>.<what>"), start, end,
// the span that caused it, the round it belongs to and the mirror leg
// that produced it. Spans are appended under a mutex (update spans come
// from pool workers) and written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Parent id of a span that no other span caused.
inline constexpr std::uint32_t kNoSpan = 0;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = kNoSpan;
  const char* name = "";  // static string, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t round = 0;  // 0 outside the round loop
  std::uint32_t leg = 0;    // 0 = the workload's own run, 1 = flipped transport

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
  std::string layer() const;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const;
  std::uint32_t next_id();
  void record(const Span& span);
  std::vector<Span> spans() const;
  /// Writes one CSV line per span (id, parent, name, start, end, round, leg).
  bool write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable baffle::Mutex mutex_;
  std::uint32_t last_id_ BAFFLE_GUARDED_BY(mutex_) = 0;
  std::vector<Span> spans_ BAFFLE_GUARDED_BY(mutex_);
};

/// Records one span over its lifetime.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint32_t parent,
            std::uint32_t round, std::uint32_t leg);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Length of the union of [start, end) intervals, in ns.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv);

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of it covered by its children's intervals.
std::vector<double> self_ms(const std::vector<Span>& spans);

}  // namespace perfbench
