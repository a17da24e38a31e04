#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::string Span::layer() const {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::next_id() {
  baffle::MutexLock lock(mutex_);
  return ++last_id_;
}

void Tracer::record(const Span& span) {
  baffle::MutexLock lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  baffle::MutexLock lock(mutex_);
  return spans_;
}

bool Tracer::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns,round,leg\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%u,%u,%s,%lld,%lld,%u,%u\n", s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.round, s.leg);
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer& tracer, const char* name, std::uint32_t parent,
                     std::uint32_t round, std::uint32_t leg)
    : tracer_(tracer) {
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.name = name;
  span_.round = round;
  span_.leg = leg;
  span_.start_ns = tracer.now_ns();
}

SpanScope::~SpanScope() {
  span_.end_ns = tracer_.now_ns();
  tracer_.record(span_);
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    children[it->second].emplace_back(std::max(s.start_ns, p.start_ns),
                                      std::min(s.end_ns, p.end_ns));
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self =
        (spans[i].end_ns - spans[i].start_ns) - covered_ns(children[i]);
    out[i] = static_cast<double>(self) * 1e-6;
  }
  return out;
}

}  // namespace perfbench
