#pragma once
// Dependency-graph task executor on top of ThreadPool.
//
// A TaskGraph holds typed nodes (train / aggregate / validate / eval /
// checkpoint / experiment units) connected by dependency edges. Edges
// express *version* dependencies: "this validation reads the model that
// commit produced", "round r+1 trains on round r's committed params".
// A node is submitted to the pool the moment its last dependency
// finishes, so independent subgraphs (multiple rounds, repeated
// experiments, sweep cells) saturate every worker while ordered chains
// stay strictly serialized — which is what keeps Rng call order, and
// therefore every result, bit-identical to a serial loop.
//
// Waiting help-drains the pool (ThreadPool::help_until), so nodes may
// themselves build and wait on nested graphs sharing the same pool
// without deadlocking a saturated pool: a blocked waiter always either
// runs queued work or sleeps until some task completes elsewhere.
//
// Error model: a throwing node records the first exception; its
// transitive dependents are skipped (never run). wait_all() rethrows
// the recorded exception after the graph quiesces, so node closures
// never outlive the locals they capture.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

/// Work-unit flavor; drives the per-kind runtime metrics
/// (task_graph.node.<kind> timers) and nothing else.
enum class TaskNodeKind {
  kTrain,       // client sampling + local training + aggregation
  kAggregate,   // standalone aggregation step
  kValidate,    // defense / feedback-loop evaluation
  kEval,        // accuracy tracking (test + backdoor passes)
  kCheckpoint,  // commit/reject + record emission
  kExperiment,  // whole-experiment root (repetition or sweep cell)
};

const char* task_node_kind_name(TaskNodeKind kind);

class TaskGraph {
 public:
  using TaskId = std::size_t;
  /// Sentinel dependency: ignored wherever it appears, so callers can
  /// write unconditional edge lists ("depends on eval[r-2]") without
  /// special-casing the first iterations.
  static constexpr TaskId kNoTask = static_cast<TaskId>(-1);

  explicit TaskGraph(ThreadPool& pool = ThreadPool::global());
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;
  /// Waits for every scheduled node (exceptions already consumed by a
  /// wait_all stay consumed; an unobserved one is dropped) so node
  /// closures never dangle.
  ~TaskGraph();

  /// Adds a node depending on previously added nodes. Dependencies must
  /// be ids returned by this graph's add() (or kNoTask), which makes
  /// cycles unrepresentable. Nodes whose dependencies have all finished
  /// are submitted to the pool immediately — adding while the graph is
  /// running is the normal mode of use.
  TaskId add(TaskNodeKind kind, std::function<void()> fn,
             const std::vector<TaskId>& deps = {});

  /// Blocks until every node has run or been skipped, help-draining the
  /// pool while waiting. Rethrows the first node exception (once); the
  /// graph stays usable — more nodes may be added afterwards.
  void wait_all();

  /// Nodes whose bodies ran to completion (so far).
  std::size_t tasks_run() const;
  /// Nodes skipped because a dependency failed (so far).
  std::size_t tasks_skipped() const;

 private:
  enum class State { kWaiting, kReady, kDone, kFailed, kSkipped };

  struct Node {
    std::function<void()> fn;
    TaskNodeKind kind = TaskNodeKind::kTrain;
    State state = State::kWaiting;
    std::size_t pending = 0;           // unfinished dependencies
    std::vector<TaskId> dependents;
  };

  void run_node(TaskId id);
  /// Marks `id` finished with `state`, releases dependents, and skips
  /// their transitive closure on failure. Returns nodes to submit.
  std::vector<TaskId> finish_node(TaskId id, State state)
      BAFFLE_REQUIRES(mutex_);
  void submit_ready(const std::vector<TaskId>& ready);

  ThreadPool& pool_;
  mutable Mutex mutex_;
  std::vector<Node> nodes_ BAFFLE_GUARDED_BY(mutex_);
  // waiting + ready + running
  std::size_t unfinished_ BAFFLE_GUARDED_BY(mutex_) = 0;
  std::size_t run_ BAFFLE_GUARDED_BY(mutex_) = 0;
  std::size_t skipped_ BAFFLE_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ BAFFLE_GUARDED_BY(mutex_);
};

}  // namespace baffle
