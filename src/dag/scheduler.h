// DagScheduler: dependency-ordered dispatch onto a fixed worker pool.
//
// A node becomes ready when every predecessor completed successfully; ready
// nodes are dispatched to the pool in topological wavefronts, so independent
// branches (fan-out replicas, parallel pipelines) execute concurrently while
// joins wait for all of their inputs. The pool is fixed at construction:
// workflow width never translates into unbounded thread creation.
//
// Runs are continuations, not calls: Start queues a run's sources and
// returns at once, and the retirement of the run's last node calls its
// DoneFn on a pool worker. No thread ever blocks waiting for a run, so any
// number of runs (api::Runtime keeps many invocations in flight) share the
// one pool, their ready nodes interleaved in one queue. Each run's
// bookkeeping is a heap object the scheduler owns from Start until its
// DoneFn returns.
//
// Nodes may complete ASYNCHRONOUSLY: a node task whose work finishes
// elsewhere (a remote dispatch whose outcome arrives as a completion frame)
// calls the `defer` handle it was given and returns immediately — the worker
// moves on to other nodes while the deferred node stays outstanding. Whoever
// finishes the work completes the returned Ticket with the node's final
// status, which runs the exact bookkeeping a synchronous return would have
// (successor release, cancellation, run completion). This is what lets a
// fixed pool carry tens of thousands of in-flight remote edges: a parked
// node costs a map entry, not a parked thread.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dag/dag.h"

namespace rr::dag {

class DagScheduler {
 private:
  struct RunState;

 public:
  // Completion handle of one deferred node. Copyable — hand copies to the
  // success path, the failure path, and the deadline backstop; the FIRST
  // Complete across all copies wins and the rest are no-ops. A
  // default-constructed Ticket is empty (Complete is a no-op). The scheduler
  // must outlive every live Ticket — guaranteed while its owner drains its
  // runs before destruction, because a pending Ticket keeps its run open.
  class Ticket {
   public:
    Ticket() = default;

    // Retires the deferred node with its final status: an error cancels the
    // run (first error wins, prefixed with the node's name), a success
    // enqueues newly-ready successors. Callable from any thread, including
    // before the deferring node task has returned to its worker. Retiring
    // the run's last node queues the run's DoneFn onto the pool.
    void Complete(Status status);

   private:
    friend class DagScheduler;
    struct Slot {
      DagScheduler* scheduler = nullptr;
      RunState* state = nullptr;
      size_t node = 0;
      std::atomic<bool> completed{false};
    };
    std::shared_ptr<Slot> slot_;
  };

  // Handed to each node task. Calling it marks the node deferred: the
  // scheduler then IGNORES the task's return value and the node stays
  // outstanding (successors unreleased, the run open) until the returned
  // Ticket completes. Only valid during the task invocation it was
  // passed to — do not store it.
  using DeferFn = std::function<Ticket()>;

  // The per-node task: invoked exactly once per node, possibly concurrently
  // with other nodes' tasks. A non-OK return cancels the run. A task whose
  // completion is asynchronous calls `defer` and arranges for the Ticket to
  // complete instead; its own return value is then ignored.
  using NodeFn = std::function<Status(size_t node_index, const DeferFn& defer)>;

  // Called once per run, on a pool worker, after every node has finished
  // (deferred nodes included): OK, or the run's first error.
  using DoneFn = std::function<void(Status status)>;

  // 0 = one worker per hardware thread (at least 2, so single-core hosts
  // still overlap a slow hop with an independent branch).
  explicit DagScheduler(size_t workers = 0);
  ~DagScheduler();

  DagScheduler(const DagScheduler&) = delete;
  DagScheduler& operator=(const DagScheduler&) = delete;

  // Starts a run of every node of `dag`, respecting its edges, and returns
  // at once. On failure no further nodes of that run are dispatched
  // (in-flight tasks finish; deferred nodes still complete through their
  // Tickets); downstream nodes never run. `done` receives the first error,
  // if any. `dag` must stay valid until `done` is called; the scheduler must
  // not be destroyed while a started run is unfinished.
  void Start(const Dag& dag, NodeFn fn, DoneFn done);

 private:
  // Bookkeeping of one run, heap-owned from Start until its DoneFn returns.
  // Workers and Tickets reach it through the queue entries and ticket slots,
  // which never outlive the run (outstanding counts them). Guarded by
  // mutex_, except fn and done, which are immutable once started.
  struct RunState {
    const Dag* dag = nullptr;
    NodeFn fn;
    DoneFn done;
    std::vector<size_t> remaining_preds;
    // Queued + executing + deferred nodes, plus one for each deferring task
    // that has not yet returned to its worker.
    size_t outstanding = 0;
    bool cancelled = false;
    Status first_error;
  };

  // Queue entry that finishes a run instead of executing a node.
  static constexpr size_t kFinish = static_cast<size_t>(-1);

  void WorkerLoop();
  // Shared retirement bookkeeping (mutex_ held): records a failure (first
  // error wins, cancelling the run) and enqueues a success's newly-ready
  // successors. A worker retiring its own task pops the first successor
  // itself, so `self_pops` skips that one wakeup. Reached from WorkerLoop
  // (synchronous returns) and from Ticket::Complete (deferred nodes).
  void RetireLocked(RunState* state, size_t node, Status status,
                    bool self_pops) RR_REQUIRES(mutex_);

  Mutex mutex_;
  CondVar work_cv_;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
  std::deque<std::pair<RunState*, size_t>> queue_ RR_GUARDED_BY(mutex_);

  std::vector<std::thread> workers_;
};

}  // namespace rr::dag
