#pragma once
// Fixed-size thread pool with a `parallel_for` helper.
//
// FL rounds train each selected client independently; the pool lets a
// round's local-training jobs (and experiment repetitions) run
// concurrently. Determinism is preserved by handing each job a
// pre-forked Rng rather than sharing one.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace baffle {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (default: hardware concurrency, at
  /// least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a job; the returned future resolves when it completes.
  std::future<void> submit(std::function<void()> job);

  /// Run fn(i) for i in [0, n), blocking until all iterations finish.
  /// Exceptions thrown by iterations propagate (the first one observed).
  /// Safe to call from inside pool tasks (nested fork-join): while
  /// waiting, the caller helps drain the queue instead of blocking, so
  /// saturating the pool with outer loops cannot deadlock inner ones.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Pops and runs one queued task if any; returns whether it did.
  bool try_run_one();

  /// Blocks until done() holds, help-draining meanwhile: the caller
  /// runs queued tasks, so a pool thread waiting on work nested in its
  /// own task cannot deadlock a saturated pool. With the queue empty it
  /// sleeps until a task is queued or finishes — no polling.
  void help_until(const std::function<bool()>& done);

  /// help_until `task` (a future of a task queued on this pool) is ready.
  void help_until_ready(const std::future<void>& task);

  /// The process-wide shared pool, sized by BAFFLE_THREADS
  /// (parse_thread_count; lets single-core CI hosts exercise concurrent
  /// paths under TSan and benchmarks fix the worker count) or else
  /// hardware concurrency — or, while a GlobalPoolPin lives, its pool.
  static ThreadPool& global();

 private:
  void worker_loop();
  void bump_progress();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::packaged_task<void()>> queue_ BAFFLE_GUARDED_BY(mutex_);
  CondVar cv_;            // workers: queued work or shutdown
  CondVar progress_cv_;   // help_until sleepers: a task queued/completed
  // Progress stamp: bumped under mutex_ on every submit and every
  // completion. help_until reads it before checking done() and sleeps
  // only while it is unchanged, so a completion racing with the check
  // either makes done() true or wakes the sleeper — no lost wakeups.
  std::uint64_t progress_ BAFFLE_GUARDED_BY(mutex_) = 0;
  bool stop_ BAFFLE_GUARDED_BY(mutex_) = false;
};

/// Largest BAFFLE_THREADS value the global pool accepts.
inline constexpr std::size_t kMaxPoolThreads = 256;

/// Parses a BAFFLE_THREADS value: a whole decimal number in
/// [1, kMaxPoolThreads], digits only. Anything else yields nullopt, and
/// ThreadPool::global() then logs a warning and uses hardware
/// concurrency.
std::optional<std::size_t> parse_thread_count(std::string_view text);

/// Test and benchmark hook (the simd::force_isa pattern): while alive,
/// ThreadPool::global() returns the caller-owned `pool`; destruction
/// restores the previous one, so pins nest. Pin and unpin only while no
/// work runs on either pool. A 1-worker pool runs every parallel_for
/// iteration inline in index order, so a 1-worker pin is the serial
/// reference of the thread-count parity tests: the production code at
/// one thread. Library code must not name it (baffle_lint: pool-pin).
class GlobalPoolPin {
 public:
  explicit GlobalPoolPin(ThreadPool& pool);
  ~GlobalPoolPin();
  GlobalPoolPin(const GlobalPoolPin&) = delete;
  GlobalPoolPin& operator=(const GlobalPoolPin&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace baffle
