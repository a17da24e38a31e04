#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <system_error>

#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace baffle {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
    ++progress_;
  }
  cv_.notify_all();
  progress_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  std::packaged_task<void()> task(std::move(job));
  auto fut = task.get_future();
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++progress_;
  }
  cv_.notify_one();
  progress_cv_.notify_all();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  Mutex error_mutex;
  auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  const std::size_t fanout = std::min(n, size());
  std::vector<std::future<void>> futures;
  futures.reserve(fanout);
  for (std::size_t i = 0; i + 1 < fanout; ++i) futures.push_back(submit(body));
  body();  // caller participates, so parallel_for works from pool threads too
  for (const auto& f : futures) help_until_ready(f);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::help_until(const std::function<bool()>& done) {
  for (;;) {
    std::uint64_t seen = 0;
    {
      MutexLock lock(mutex_);
      seen = progress_;
    }
    if (done()) return;
    if (try_run_one()) continue;
    MutexLock lock(mutex_);
    while (!stop_ && progress_ == seen) progress_cv_.wait(mutex_);
  }
}

void ThreadPool::help_until_ready(const std::future<void>& task) {
  help_until([&] {
    return task.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  });
}

namespace {
// The pool a live GlobalPoolPin substitutes for the process pool.
std::atomic<ThreadPool*> pinned_pool{nullptr};
}  // namespace

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end || n == 0 || n > kMaxPoolThreads) {
    return std::nullopt;
  }
  return n;
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* pinned = pinned_pool.load()) return *pinned;
  static ThreadPool pool([] {
    const char* env = std::getenv("BAFFLE_THREADS");
    if (env == nullptr) return std::size_t{0};
    if (const auto n = parse_thread_count(env)) return *n;
    log_warn() << "BAFFLE_THREADS=\"" << env << "\" is not a whole number "
               << "in [1, " << kMaxPoolThreads
               << "]; using hardware concurrency";
    return std::size_t{0};
  }());
  return pool;
}

GlobalPoolPin::GlobalPoolPin(ThreadPool& pool)
    : previous_(pinned_pool.exchange(&pool)) {}

GlobalPoolPin::~GlobalPoolPin() {
  pinned_pool.store(previous_);
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  MetricsRegistry::global().add_counter("thread_pool.help_drained");
  task();
  bump_progress();
  return true;
}

void ThreadPool::bump_progress() {
  {
    MutexLock lock(mutex_);
    ++progress_;
  }
  progress_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    bump_progress();
  }
}

}  // namespace baffle
