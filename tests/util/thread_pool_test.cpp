#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace baffle {
namespace {

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionFromNestedInnerLoopPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer) {
                          pool.parallel_for(4, [&](std::size_t inner) {
                            if (outer == 1 && inner == 2) {
                              throw std::runtime_error("nested boom");
                            }
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::atomic<int> total{0};
  pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, ExceptionDoesNotAbortRemainingIndices) {
  // parallel_for records the first error but keeps draining indices, so
  // every iteration still runs exactly once.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   started.fetch_add(1);
                                   if (i == 0) {
                                     throw std::runtime_error("early");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 32);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Saturate a small pool with outer iterations that each run an inner
  // parallel_for; the helping wait must drain everything.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 60);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(25, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 25);
}

TEST(ThreadPool, TryRunOneEmptyQueue) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.try_run_one());
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, HelpUntilRunsQueuedWorkOnTheCaller) {
  // Whichever of the two tasks the single worker takes first, the
  // other can only run on the waiting caller: help_until must drain it
  // rather than sleep (the blocker spins until the opener has run).
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  std::atomic<bool> ran{false};
  auto blocker = pool.submit([&] {
    while (!gate.load()) std::this_thread::yield();
  });
  auto opener = pool.submit([&] {
    ran.store(true);
    gate.store(true);
  });
  pool.help_until_ready(opener);
  EXPECT_TRUE(ran.load());
  pool.help_until_ready(blocker);
  blocker.get();
  pool.help_until([] { return true; });  // already done: returns at once
}

TEST(GlobalPoolPin, SwapsTheGlobalPoolAndNests) {
  ThreadPool& process_pool = ThreadPool::global();
  ThreadPool one(1);
  ThreadPool three(3);
  {
    GlobalPoolPin outer(one);
    EXPECT_EQ(&ThreadPool::global(), &one);
    {
      GlobalPoolPin inner(three);
      EXPECT_EQ(&ThreadPool::global(), &three);
      EXPECT_EQ(ThreadPool::global().size(), 3u);
    }
    EXPECT_EQ(&ThreadPool::global(), &one);
  }
  EXPECT_EQ(&ThreadPool::global(), &process_pool);
}

TEST(GlobalPoolPin, OneWorkerRunsParallelForInlineInIndexOrder) {
  // The serial reference: on a pinned 1-worker pool every iteration runs
  // on the calling thread, in index order.
  ThreadPool one(1);
  const GlobalPoolPin pin(one);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ThreadPool::global().parallel_for(40, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(40);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParseThreadCount, AcceptsWholePositiveDecimalsUpToTheCap) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("0004"), 4u);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxPoolThreads)),
            kMaxPoolThreads);
}

TEST(ParseThreadCount, RejectsEverythingElse) {
  for (const char* bad :
       {"", "0", "000", "-1", "+4", " 4", "4 ", "4abc", "abc", "1e2", "2.5",
        "0x10", "257", "18446744073709551615", "99999999999999999999999"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << '"' << bad << '"';
  }
}

}  // namespace
}  // namespace baffle
