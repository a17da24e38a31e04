#pragma once
// The pool pin's definition site: exempt from the pool-pin rule.

namespace fixture {

class ThreadPool {};

class GlobalPoolPin {
 public:
  explicit GlobalPoolPin(ThreadPool& pool) : pool_(&pool) {}
  ThreadPool& pool() const { return *pool_; }

 private:
  ThreadPool* pool_;
};

}  // namespace fixture
