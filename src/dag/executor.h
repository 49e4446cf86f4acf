// DagExecutor: executes a validated Dag over a WorkflowManager's registry.
//
// Per edge it obtains the placement-selected hop from the shared HopTable
// (the same cached channels chains use) and speaks only the polymorphic Hop
// interface — no transfer-mode switches live here. Payloads move on the
// zero-copy plane (core/payload.h):
//
//  * Fan-out shares ONE immutable buffer across all successors: the
//    producer's output is egressed exactly once and every successor's
//    delivery reads the same ref-counted chunk, so an N-way fan-out performs
//    O(1) payload copies — and the successors' ingress writes proceed in
//    parallel on the scheduler's workers because the producer's shim is no
//    longer locked during the wire phase.
//  * Fan-in gathers predecessor payloads directly into ONE pre-allocated
//    region of the join function's memory (each leg delivered over its own
//    placement-selected hop into its slice, in edge-declaration order) —
//    the old per-predecessor staging regions and the intermediate merge
//    allocation are gone. The join is invoked exactly once.
//  * A single-successor edge keeps the guest-direct fast path: the payload
//    stays guest-resident and a user-space hop performs the classic single
//    copy between the two linear memories.
//
// Functions behind a remote NodeAgent ingress are served by invoke-coupled
// hops, COMPLETION-DRIVEN: the executor assembles one frame (a fan-in's
// predecessor chunks vectored without a host merge copy), registers a
// continuation slot keyed by a fresh correlation token, DEFERS the node with
// the scheduler (DagScheduler::Ticket), and initiates the transfer with
// Hop::DispatchAsync — then the worker moves on. The node retires when the
// first of three signals resolves the slot:
//
//  * the agent's delivery callback (DeliverySink -> DeliverOutcome) carrying
//    the remote invocation's outcome and output lease — the success path;
//  * the hop's DispatchAsync callback with an error — the agent's
//    completion frame, so a remote HANDLER failure fails the edge
//    immediately instead of waiting out the deadline (a dead connection
//    fails it the same way);
//  * the remote_deadline sweeper — a BACKSTOP for a far side that went
//    fully silent (a hung agent, a lost completion).
//
// No scheduler worker ever parks on a wire wait, so in-flight remote edges
// are bounded by memory, not pool width. Tokens make the attribution exact:
// a completion belonging to a timed-out or cancelled transfer matches no
// pending token and is rejected with kTokenMismatch (its output released),
// never claimed by a later run.
//
// FAILURE RECOVERY (resilience/policy.h): when a run's ResiliencePolicy is
// enabled, a retryable attempt failure does not complete the ticket — the
// slot re-registers under a FRESH token in a backoff phase and the sweeper
// re-dispatches it when the (decorrelated-jitter) delay passes, so no
// worker parks in a backoff sleep and a late completion of the failed
// attempt can only miss (its token is gone → kTokenMismatch, counted in
// rr_stale_deliveries_total). Replica selection starts each attempt at the
// last replica used and skips replicas whose circuit breaker (HopTable)
// refuses admission; when one replica's attempts are spent the selection
// start advances — failover in registration order, wrapping. The dispatch
// frame is a ref-counted immutable rr::Buffer held by the slot, so a
// redispatch costs refcounts, not copies.
//
// Execution is reentrant: concurrent runs (api::Runtime keeps many
// invocations in flight) share the worker pool, the hop cache, and the
// delivery mailbox; per-run state lives on the caller's stack, kept valid by
// the scheduler (a deferred node keeps its Run blocked). There is no public
// synchronous entry — api::Runtime::Submit is the way to run a DAG.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/node_agent.h"
#include "core/payload.h"
#include "core/workflow.h"
#include "dag/dag.h"
#include "dag/scheduler.h"
#include "obs/trace.h"
#include "resilience/policy.h"
#include "telemetry/metrics.h"

namespace rr::api {
class Runtime;
}  // namespace rr::api

namespace rr::dag {

class DagExecutor {
 public:
  // `manager` must outlive the executor. 0 workers = hardware concurrency.
  explicit DagExecutor(core::WorkflowManager* manager, size_t workers = 0)
      : manager_(manager), scheduler_(workers) {
    life_->owner = this;
  }
  ~DagExecutor();

  // Delivery callback for NodeAgent-registered functions: routes the remote
  // invoke's outcome back into the executor so the DAG can continue past the
  // remote node. The executor must outlive the agent's use of the callback.
  core::NodeAgent::DeliveryCallback DeliverySink();

  // Routes one remote completion to the transfer that dispatched `token`,
  // resolving its continuation slot: the outcome finishes the node and the
  // scheduler releases its successors. `instance` is the agent-side pool
  // lease holding the outcome's output region; a matched completion hands it
  // to the node (which pins it in the node's payload), an unmatched one —
  // late completion of a timed-out edge, a cancelled run, or an untracked
  // sender — returns kTokenMismatch, releasing the output region and the
  // instance. Exposed for DeliverySink and for protocol tests.
  Status DeliverOutcome(const std::string& function,
                        core::InvokeOutcome outcome, uint64_t token,
                        core::ShimLease instance);

  // Backstop on one remote (NodeAgent) edge: how long from dispatch until
  // the edge fails with kDeadlineExceeded when NO signal arrives — neither a
  // delivery callback nor a completion frame. Failures that do speak (an
  // error completion frame, a dead connection) resolve the edge immediately,
  // regardless of this value. Non-positive disables the backstop entirely
  // (unbounded) — it never means "expire immediately". With retries enabled
  // the backstop bounds EACH attempt, not the edge.
  void set_remote_deadline(Nanos deadline) { remote_deadline_ = deadline; }

  // Default retry policy for runs that do not carry their own (the
  // per-DagSpec override threads through Execute).
  void set_resilience_policy(resilience::ResiliencePolicy policy) {
    policy_ = policy;
  }

  size_t worker_count() const { return scheduler_.worker_count(); }

 private:
  friend class rr::api::Runtime;

  struct NodeRun;
  struct StatsState;

  // Per-run resilience state, living on Execute's stack beside StatsState:
  // the resolved policy, the shared retry budget, and the jitter stream
  // (guarded by mail_mutex_ — backoff draws happen under it).
  struct RunResilience {
    resilience::ResiliencePolicy policy;
    resilience::RetryBudget budget;
    rr::Rng rng;

    explicit RunResilience(const resilience::ResiliencePolicy& p)
        : policy(p), budget(p.enabled ? p.run_retry_budget : 0),
          rng(p.jitter_seed) {}
  };

  // Runs the DAG: `input` is shared (never copied) with every source node;
  // the sink functions' outputs (concatenated in declaration order when
  // there are several sinks, by chunk sharing) are returned as one buffer.
  // On any node failure the run cancels — downstream nodes never execute —
  // and the first error returns; the payload plane's refcounts release every
  // still-live output. Safe to call from many threads at once; reachable
  // only through api::Runtime::Submit. `policy_override` (a per-DagSpec
  // ResiliencePolicy) replaces the executor default for this run.
  Result<rr::Buffer> Execute(
      const Dag& dag, const rr::Buffer& input,
      telemetry::DagRunStats* stats = nullptr,
      const std::optional<resilience::ResiliencePolicy>& policy_override =
          std::nullopt);

  Status RunNode(const Dag& dag, size_t index, std::vector<NodeRun>& runs,
                 const rr::Buffer& input, StatsState& stats,
                 RunResilience& res, const DagScheduler::DeferFn& defer);
  Status RunLocalNode(const Dag& dag, size_t index, std::vector<NodeRun>& runs,
                      const std::vector<std::shared_ptr<core::Hop>>& pred_hops,
                      StatsState& stats);
  Status RunRemoteNode(const Dag& dag, size_t index, std::vector<NodeRun>& runs,
                       StatsState& stats, RunResilience& res,
                       const DagScheduler::DeferFn& defer);
  Status FinishNode(const Dag& dag, size_t index, std::vector<NodeRun>& runs,
                    core::Shim* instance, core::InvokeOutcome outcome);
  static void ReleaseConsumedPreds(const DagNode& node,
                                   std::vector<NodeRun>& runs);

  // One pending invoke-coupled transfer: the deferred node's continuation,
  // registered before its frame is dispatched. The raw pointers target the
  // Run's stack state, valid until the ticket completes (the scheduler keeps
  // the Run blocked while the node is outstanding) — so every resolution
  // path touches them strictly BEFORE Ticket::Complete.
  //
  // With retries, a slot cycles between two phases under a CHANGING token:
  // kInFlight (dispatched, waiting on a signal) and kBackoff (waiting for
  // retry_at; the sweeper re-dispatches it). Each cycle re-registers the
  // slot under a fresh token, so any signal for a previous attempt finds
  // nothing — first-taker-wins resolution needs no generation counters.
  struct Pending {
    enum class Phase { kInFlight, kBackoff };

    std::string function;  // target function = hop-cache eviction key
    DagScheduler::Ticket ticket;
    const Dag* dag = nullptr;
    size_t index = 0;
    std::vector<NodeRun>* runs = nullptr;
    StatsState* stats = nullptr;
    RunResilience* res = nullptr;
    std::shared_ptr<core::Hop> hop;
    std::vector<uint64_t> part_bytes;  // per-predecessor frame contribution
    Nanos frame_wasm_io{0};            // egress time of frame assembly
    rr::Buffer frame;                  // immutable dispatch frame (refcounted)
    obs::SpanContext trace_ctx{};      // re-installed around each redispatch
    TimePoint dispatched_at{};
    // kInFlight: dispatched_at + remote_deadline_ per ATTEMPT, or
    // TimePoint::max() while the backstop is disabled or the dispatch has
    // not initiated yet.
    TimePoint deadline{};
    Phase phase = Phase::kInFlight;
    TimePoint retry_at{};      // kBackoff: when the sweeper re-dispatches
    Nanos prev_backoff{0};     // decorrelated-jitter recurrence state
    uint32_t total_attempts = 0;
    uint32_t attempts_on_replica = 0;
    size_t replica = 0;        // where the next selection starts
    static constexpr size_t kNoReplica = static_cast<size_t>(-1);
    size_t last_replica = kNoReplica;  // replica of the last dispatched attempt
  };

  // Extracts the slot under mail_mutex_ (first taker wins; later signals
  // find nothing and no-op). Resolution then runs outside the lock.
  std::optional<Pending> TakePending(uint64_t token);
  // Selects a replica (breaker-gated), establishes its hop, arms the attempt
  // deadline, and initiates the transfer. Runs on a scheduler worker for
  // attempt 1 and on the sweeper thread for retries.
  void DispatchAttempt(uint64_t token);
  // Resolves one attempt's failure: terminal (ticket completes) when the
  // status is non-retryable, attempts/budget are spent, or the run's policy
  // is disabled; otherwise the slot re-registers under a fresh token in
  // backoff phase. Evicts the hop when the wire died (`force_evict` for
  // deadline expiry, which always tears the channel down). Unknown tokens
  // no-op.
  void ResolveAttemptFailure(uint64_t token, const Status& status,
                             bool force_evict);
  void SweeperLoop();

  // Shared with every DispatchAsync callback: hops (and their mux clients)
  // may fire completion callbacks after this executor is gone — the runtime
  // destroys the executor before the transports, and a stream the deadline
  // sweeper abandoned can complete arbitrarily late. The guard outlives the
  // executor; the destructor clears `owner` under the mutex, turning late
  // callbacks into no-ops instead of use-after-free.
  struct LifeGuard {
    Mutex mutex;
    DagExecutor* owner RR_GUARDED_BY(mutex) = nullptr;
  };

  core::WorkflowManager* manager_;
  DagScheduler scheduler_;
  const std::shared_ptr<LifeGuard> life_ = std::make_shared<LifeGuard>();

  Mutex mail_mutex_;
  std::map<uint64_t, Pending> pending_ RR_GUARDED_BY(mail_mutex_);
  std::atomic<uint64_t> next_token_{1};
  Nanos remote_deadline_ = std::chrono::seconds(60);
  resilience::ResiliencePolicy policy_;  // default; DagSpec may override

  // The backstop sweeper, started lazily with the first pending transfer.
  // sweep_next_ is the deadline it is currently waiting for: registrations
  // with later deadlines (the common case — deadlines are monotonic) skip
  // the wakeup, so the sweeper scans once per expiry, not once per dispatch.
  CondVar sweep_cv_;
  std::thread sweeper_;
  bool sweeper_stop_ RR_GUARDED_BY(mail_mutex_) = false;
  TimePoint sweep_next_ RR_GUARDED_BY(mail_mutex_) = TimePoint::max();
};

}  // namespace rr::dag
