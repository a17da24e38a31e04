#pragma once
// Leased per-thread scratch, one slot per (thread, nesting depth).
//
// A plain thread_local buffer is not safe for scratch that is live
// across a pool wait: parallel_for waiters HELP-DRAIN the pool queue,
// so a thread blocked mid-call can steal and run a task that leases the
// same kind of scratch (a nested GEMM, another validator's tile) while
// remote workers still read this thread's outer buffer. Each nesting
// level therefore gets its own slot. Slots live in a deque (stable
// addresses across growth) and are reused, with their capacity, once
// their level returns.

#include <cstddef>
#include <deque>

#include "util/sync.hpp"

namespace baffle {

template <typename T>
class ScratchLease {
 public:
  // Sanctioned lock-free escape: the slot stack is thread_local, so no
  // two threads ever touch the same deque; per-thread exclusivity is
  // the whole invariant and there is no capability to annotate.
  ScratchLease() BAFFLE_NO_THREAD_SAFETY_ANALYSIS {
    if (slots().size() <= depth()) slots().emplace_back();
    buffer_ = &slots()[depth()];
    ++depth();
  }
  ~ScratchLease() BAFFLE_NO_THREAD_SAFETY_ANALYSIS { --depth(); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() const { return *buffer_; }

 private:
  static std::deque<T>& slots() {
    thread_local std::deque<T> s;
    return s;
  }
  static std::size_t& depth() {
    thread_local std::size_t d = 0;
    return d;
  }
  T* buffer_;
};

}  // namespace baffle
