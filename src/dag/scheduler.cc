#include "dag/scheduler.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rr::dag {
namespace {

// Level of the shared ready queue: nodes dispatched but not yet picked up.
// Sampled under the queue lock, so Set always publishes a consistent depth.
obs::Gauge& QueueDepth() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_dag_queue_depth", "Ready DAG nodes waiting for a pool worker");
  return *gauge;
}

}  // namespace

DagScheduler::DagScheduler(size_t workers) {
  if (workers == 0) {
    workers = std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DagScheduler::~DagScheduler() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void DagScheduler::Start(const Dag& dag, NodeFn fn, DoneFn done) {
  auto* const state = new RunState;
  state->dag = &dag;
  state->fn = std::move(fn);
  state->done = std::move(done);
  state->remaining_preds.resize(dag.size());
  for (size_t i = 0; i < dag.size(); ++i) {
    state->remaining_preds[i] = dag.node(i).preds.size();
  }

  // A validated Dag is non-empty, so outstanding starts > 0 and reaches 0
  // exactly when every reachable (non-cancelled) node has finished —
  // deferred nodes included, their Tickets being what decrements it.
  MutexLock lock(mutex_);
  state->outstanding = dag.sources().size();
  for (const size_t source : dag.sources()) {
    queue_.emplace_back(state, source);
    // One wakeup per enqueued item: notify_all would stampede the whole
    // pool through the mutex for a run that may have a single source.
    work_cv_.notify_one();
  }
  QueueDepth().Set(static_cast<int64_t>(queue_.size()));
}

void DagScheduler::WorkerLoop() {
  MutexLock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this]() RR_REQUIRES(mutex_) {
      return stopping_ || !queue_.empty();
    });
    if (stopping_) return;
    auto [state, node] = queue_.front();
    queue_.pop_front();
    QueueDepth().Set(static_cast<int64_t>(queue_.size()));

    bool finished = node == kFinish;
    if (!finished) {
      Status status;
      bool deferred = false;
      if (!state->cancelled) {
        lock.unlock();
        const DeferFn defer = [this, state = state, node = node, &deferred] {
          deferred = true;
          // The Ticket's own unit: the task's keeps the run open until the
          // task has returned here, even when the Ticket completes first.
          MutexLock defer_lock(mutex_);
          ++state->outstanding;
          Ticket ticket;
          ticket.slot_ = std::make_shared<Ticket::Slot>(this, state, node);
          return ticket;
        };
        status = state->fn(node, defer);
        lock.lock();
      }
      // else: the run failed while this node sat queued — retire it unrun.
      // A deferred node's successors are the Ticket's to release.
      if (!deferred) {
        RetireLocked(state, node, std::move(status), /*self_pops=*/true);
      }
      finished = --state->outstanding == 0;
    }
    if (finished) {
      // The run's last node retired: finish it here, on the pool, with the
      // lock dropped — the DoneFn egresses sinks and runs user callbacks.
      lock.unlock();
      state->done(state->first_error);
      delete state;
      lock.lock();
    }
  }
}

void DagScheduler::RetireLocked(RunState* state, size_t node, Status status,
                                bool self_pops) {
  if (!status.ok()) {
    if (state->first_error.ok()) {
      state->first_error =
          Status(status.code(), "node " + state->dag->node(node).name + ": " +
                                    status.message());
    }
    state->cancelled = true;
  } else if (!state->cancelled) {
    for (const size_t succ : state->dag->node(node).succs) {
      if (--state->remaining_preds[succ] == 0) {
        queue_.emplace_back(state, succ);
        ++state->outstanding;
        // One notify per new item engages as many workers as there is work,
        // less the first item a retiring worker enqueues: it pops that one.
        if (!self_pops) work_cv_.notify_one();
        self_pops = false;
      }
    }
    QueueDepth().Set(static_cast<int64_t>(queue_.size()));
  }
}

void DagScheduler::Ticket::Complete(Status status) {
  const std::shared_ptr<Slot> slot = slot_;
  if (slot == nullptr || slot->completed.exchange(true)) return;
  DagScheduler* const scheduler = slot->scheduler;
  MutexLock lock(scheduler->mutex_);
  scheduler->RetireLocked(slot->state, slot->node, std::move(status),
                          /*self_pops=*/false);
  if (--slot->state->outstanding == 0) {
    // The completing thread may be a reactor, an agent invoke worker or the
    // executor's sweeper: hand the run's finish to the pool.
    scheduler->queue_.emplace_back(slot->state, kFinish);
    scheduler->work_cv_.notify_one();
    QueueDepth().Set(static_cast<int64_t>(scheduler->queue_.size()));
  }
}

}  // namespace rr::dag
