#include "dag/executor.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/log.h"
#include "core/region_guard.h"
#include "obs/trace.h"
#include "resilience/metrics.h"

namespace rr::dag {

using core::Endpoint;
using core::Hop;
using core::InvokeOutcome;
using core::MemoryRegion;
using core::Payload;
using core::Shim;
using core::ShimLease;
using core::TransferTiming;

// Per-node execution state. The node's output lives in `payload` — a
// ref-counted handle on the zero-copy plane. `remaining_consumers` counts
// successors that still need it; the consumer that decrements it to zero
// drops the node's claim, and the payload's own refcount releases the
// storage (a still-guest-resident region, or the shared host chunk) with the
// last holder, so fan-out never frees under a concurrent reader and
// steady-state memory stays bounded by the DAG's live frontier. A cancelled
// run cleans up the same way when the runs vector unwinds.
struct DagExecutor::NodeRun {
  Endpoint* endpoint = nullptr;
  Payload payload;
  // Guest-egress time of an eager (fan-out) materialization, amortized over
  // the successor edges' wasm_io samples — the per-edge staging read it
  // replaced was timed per edge.
  Nanos egress_wasm_io{0};
  std::atomic<size_t> remaining_consumers{0};
};

struct DagExecutor::StatsState {
  telemetry::DagRunStats* out = nullptr;
  Mutex mutex;
  std::optional<TimePoint> phase_start RR_GUARDED_BY(mutex);
  TimePoint phase_end RR_GUARDED_BY(mutex){};

  // Called immediately before an edge transfer: the first caller anchors the
  // transfer phase, so `transfer_phase` spans first edge start to last edge
  // completion across all concurrent branches.
  void MarkPhaseStart() {
    if (out == nullptr) return;
    MutexLock lock(mutex);
    if (!phase_start.has_value()) phase_start = Now();
  }

  void Record(const std::string& source, const std::string& target,
              core::TransferMode mode, uint64_t bytes, Nanos latency,
              Nanos wasm_io) {
    if (out == nullptr) return;
    // Timestamp and sample construction (three string copies) stay outside
    // the lock: with many concurrent runs recording edges, the critical
    // section is just a comparison and a vector push.
    const TimePoint now = Now();
    telemetry::EdgeSample sample{source, target,
                                 std::string(core::TransferModeName(mode)),
                                 bytes, latency, wasm_io};
    MutexLock lock(mutex);
    phase_end = std::max(phase_end, now);
    out->edges.push_back(std::move(sample));
  }
};

DagExecutor::~DagExecutor() {
  // Disarm the completion callbacks FIRST: a mux stream the deadline sweeper
  // abandoned may still fire its DispatchAsync callback from a reactor
  // thread while (or after) this executor tears down.
  {
    MutexLock lock(life_->mutex);
    life_->owner = nullptr;
  }
  {
    MutexLock lock(mail_mutex_);
    sweeper_stop_ = true;
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

Result<rr::Buffer> DagExecutor::Execute(
    const Dag& dag, const rr::Buffer& input, telemetry::DagRunStats* stats,
    const std::optional<resilience::ResiliencePolicy>& policy_override) {
  const Stopwatch total_timer;
  if (stats != nullptr) *stats = telemetry::DagRunStats{};

  std::vector<NodeRun> runs(dag.size());
  for (size_t i = 0; i < dag.size(); ++i) {
    RR_ASSIGN_OR_RETURN(Endpoint* const endpoint,
                        manager_->Find(dag.node(i).name));
    runs[i].endpoint = endpoint;
    runs[i].remaining_consumers.store(dag.node(i).succs.size(),
                                      std::memory_order_relaxed);
  }

  StatsState stats_state;
  stats_state.out = stats;
  // Per-run retry state lives on this stack like StatsState: pending slots
  // point at it, and the scheduler keeps this frame alive while any of the
  // run's tickets is outstanding.
  RunResilience res(policy_override.value_or(policy_));

  // Node tasks execute on the scheduler's pool threads; re-install the
  // submitting thread's trace context there so every node/edge span joins
  // the run's trace instead of opening orphan traces per worker.
  const obs::SpanContext run_ctx = obs::CurrentSpanContext();
  Status status = scheduler_.Run(
      dag, [&](size_t index, const DagScheduler::DeferFn& defer) {
        obs::ScopedTraceContext ctx(run_ctx);
        return RunNode(dag, index, runs, input, stats_state, res, defer);
      });

  // Assemble the result by chunk sharing: each sink's output is egressed
  // exactly once (here, if it was not already host-resident) and the
  // concatenation borrows the chunks — no merge allocation. Every other
  // still-live payload (a cancelled run's frontier) releases through its
  // handle when `runs` unwinds.
  rr::Buffer result;
  if (status.ok()) {
    for (const size_t sink : dag.sinks()) {
      auto sink_buffer = runs[sink].payload.Materialize();
      if (!sink_buffer.ok()) {
        status = sink_buffer.status();
        break;
      }
      result.Append(*sink_buffer);
    }
  }
  RR_RETURN_IF_ERROR(status);

  if (stats != nullptr) {
    stats->total = total_timer.Elapsed();
    if (stats_state.phase_start.has_value()) {
      stats->transfer_phase = stats_state.phase_end - *stats_state.phase_start;
    }
  }
  return result;
}

Status DagExecutor::RunNode(const Dag& dag, size_t index,
                            std::vector<NodeRun>& runs, const rr::Buffer& input,
                            StatsState& stats, RunResilience& res,
                            const DagScheduler::DeferFn& defer) {
  const DagNode& node = dag.node(index);
  NodeRun& run = runs[index];
  Endpoint& target = *run.endpoint;

  // Sources take the workflow input through platform ingress: a gather write
  // of the shared input chunks — the submit-side plane never copied them.
  // The lease admits this run into the function's pool; concurrent submits
  // of the same workflow land on distinct warm instances, so their
  // invocations overlap instead of queuing on one VM.
  if (node.preds.empty()) {
    RR_ASSIGN_OR_RETURN(ShimLease lease, target.Lease());
    InvokeOutcome outcome;
    {
      MutexLock shim_lock(lease->exec_mutex());
      RR_TRACE_SPAN(node_span, "dag", "node:" + node.name);
      RR_ASSIGN_OR_RETURN(outcome,
                          lease->DeliverAndInvoke(rr::BufferView(input)));
    }
    return FinishNode(dag, index, runs, lease.get(), outcome);
  }

  // Decide coupling per predecessor FIRST, from placement alone: a network
  // edge into a published ingress port is invoke-coupled (the frame lands at
  // a remote NodeAgent whose worker performs receive+invoke); everything
  // else is a local hop that delivers here. The invoke-coupled path defers
  // hop establishment to DispatchAttempt — the hop to a dead replica must
  // fail INSIDE the retry/failover engine, not up here — so only local
  // predecessors establish eagerly. The agent ingress only carries edges the
  // placement makes network anyway, so a co-located predecessor keeps its
  // user/kernel fast path even when the target publishes an ingress port; a
  // genuinely mixed predecessor set is rejected regardless of
  // edge-declaration order.
  size_t coupled = 0;
  for (const size_t pred : node.preds) {
    const core::TransferMode mode = core::SelectMode(
        runs[pred].endpoint->location, target.location);
    if (mode == core::TransferMode::kNetwork && target.port != 0) ++coupled;
  }
  if (coupled == node.preds.size()) {
    return RunRemoteNode(dag, index, runs, stats, res, defer);
  }
  if (coupled != 0) {
    return FailedPreconditionError(
        "node " + node.name +
        " mixes invoke-coupled (agent ingress) and local predecessors");
  }
  // Local path: establish every predecessor's hop up front. Holding the
  // shared_ptrs for the node's duration keeps every hop alive across a
  // concurrent eviction (the transfer then fails on the closed wire,
  // cleanly).
  std::vector<std::shared_ptr<Hop>> pred_hops;
  pred_hops.reserve(node.preds.size());
  for (const size_t pred : node.preds) {
    RR_ASSIGN_OR_RETURN(std::shared_ptr<Hop> hop,
                        manager_->hops().Get(*runs[pred].endpoint, target));
    pred_hops.push_back(std::move(hop));
  }
  return RunLocalNode(dag, index, runs, pred_hops, stats);
}

Status DagExecutor::RunLocalNode(
    const Dag& dag, size_t index, std::vector<NodeRun>& runs,
    const std::vector<std::shared_ptr<Hop>>& pred_hops, StatsState& stats) {
  const DagNode& node = dag.node(index);
  NodeRun& run = runs[index];
  Endpoint& target = *run.endpoint;

  // This edge's share of the predecessor's eager-egress time (zero when the
  // payload stayed guest-resident — the hop then times its own egress).
  const auto egress_share = [&](size_t pred) {
    return runs[pred].egress_wasm_io /
           static_cast<int64_t>(dag.node(pred).succs.size());
  };

  // A Forward whose wire died (a deadline expiry without a decoded ack shut
  // a network loopback hop's channel down) leaves the hop dead in the
  // cache: evict so the next run re-establishes instead of failing forever.
  // Wireless (user/kernel) hops and typed in-sync refusals stay cached.
  const auto evict_if_dead = [&](Hop& hop) {
    if (!hop.healthy()) manager_->hops().Evict(target.shim->name());
  };

  // ONE lease spans the whole node invocation — the gather-region prepare,
  // every leg's delivery, and the invoke all land in the same instance. The
  // lease is released when this function returns (never held across a
  // scheduler dispatch boundary, which could starve bounded pools); the
  // node's output region stays behind in the instance, read later under its
  // exec mutex.
  RR_ASSIGN_OR_RETURN(ShimLease lease, target.Lease());
  Shim& instance = *lease;

  MemoryRegion input_region;
  if (node.preds.size() == 1) {
    // Single predecessor: the guest-direct fast path (a still-guest-resident
    // payload moves with the mode's classic single copy; a shared fan-out
    // chunk is gathered straight into the fresh input region).
    const size_t pred = node.preds.front();
    const Payload payload = runs[pred].payload;
    TransferTiming timing;
    stats.MarkPhaseStart();
    // While tracing, the edge span doubles as the stats timer (End() returns
    // the transfer's wall time); with tracing off the Stopwatch serves the
    // EdgeSample alone and the span site costs one atomic load.
    RR_TRACE_SPAN(edge_span, "dag",
                  "edge:" + runs[pred].endpoint->shim->name() + "->" +
                      target.shim->name());
    const Stopwatch edge_timer;
    Result<MemoryRegion> delivered =
        pred_hops.front()->Forward(payload, instance, &timing);
    const Nanos edge_latency =
        edge_span ? edge_span->End() : edge_timer.Elapsed();
    if (!delivered.ok()) {
      evict_if_dead(*pred_hops.front());
      return delivered.status();
    }
    stats.Record(runs[pred].endpoint->shim->name(), target.shim->name(),
                 pred_hops.front()->mode(), delivered->length,
                 edge_latency, timing.wasm_io + egress_share(pred));
    input_region = *delivered;
  } else {
    // Fan-in: one gather region of the summed predecessor sizes, every leg
    // delivered over its own placement-selected hop directly into its slice
    // (edge-declaration order) — no per-predecessor staging regions, no
    // intermediate merge allocation, no merge copy.
    uint64_t total = 0;
    for (const size_t pred : node.preds) total += runs[pred].payload.size();
    if (total > UINT32_MAX) {
      return ResourceExhaustedError("fan-in input exceeds 32-bit guest memory");
    }
    MemoryRegion merged;
    // The gather region must not outlive a failed fan-in: any leg's failure
    // releases the whole merged allocation (under the instance's exec mutex
    // — the guard itself takes no locks) before the error propagates.
    core::RegionGuard merged_guard;
    {
      MutexLock shim_lock(instance.exec_mutex());
      RR_ASSIGN_OR_RETURN(merged,
                          instance.PrepareInput(static_cast<uint32_t>(total)));
      merged_guard = core::RegionGuard(&instance, merged);
    }
    uint32_t offset = 0;
    for (size_t i = 0; i < node.preds.size(); ++i) {
      const size_t pred = node.preds[i];
      const Payload payload = runs[pred].payload;
      const MemoryRegion slice{merged.address + offset,
                               static_cast<uint32_t>(payload.size())};
      TransferTiming timing;
      stats.MarkPhaseStart();
      RR_TRACE_SPAN(edge_span, "dag",
                    "edge:" + runs[pred].endpoint->shim->name() + "->" +
                        target.shim->name());
      const Stopwatch edge_timer;
      Result<MemoryRegion> delivered =
          pred_hops[i]->Forward(payload, instance, &timing, &slice);
      const Nanos edge_latency =
          edge_span ? edge_span->End() : edge_timer.Elapsed();
      if (!delivered.ok()) {
        evict_if_dead(*pred_hops[i]);
        MutexLock shim_lock(instance.exec_mutex());
        (void)merged_guard.ReleaseNow();
        return delivered.status();
      }
      stats.Record(runs[pred].endpoint->shim->name(), target.shim->name(),
                   pred_hops[i]->mode(), slice.length, edge_latency,
                   timing.wasm_io + egress_share(pred));
      offset += slice.length;
    }
    merged_guard.Dismiss();  // ownership continues as the node's input region
    input_region = merged;
  }
  ReleaseConsumedPreds(node, runs);

  InvokeOutcome outcome;
  {
    MutexLock shim_lock(instance.exec_mutex());
    // A successful invoke consumes the input region; a failed one leaves it
    // allocated in the target's sandbox — the guard reclaims it (we hold the
    // exec mutex for the guard's whole scope).
    core::RegionGuard input_guard(&instance, input_region);
    RR_TRACE_SPAN(node_span, "dag", "node:" + node.name);
    auto invoked = instance.InvokeOnRegion(input_region);
    if (node_span) node_span->End();
    if (!invoked.ok()) return invoked.status();
    input_guard.Dismiss();
    outcome = *invoked;
  }
  return FinishNode(dag, index, runs, &instance, outcome);
}

// Completion-driven remote node: assembles ONE frame, registers the pending
// continuation slot, defers the node with the scheduler, and hands the token
// to DispatchAttempt — then returns, freeing the worker. The node retires
// when the slot resolves: DeliverOutcome (the agent's delivery callback,
// carrying the outcome), the hop's DispatchAsync callback with an error (a
// mux completion frame — a remote handler failure arrives here immediately),
// or the remote_deadline sweeper (the backstop for a silent far side). With
// the run's ResiliencePolicy enabled, a retryable attempt failure re-enters
// the slot as a backoff ticket instead of completing it (see
// ResolveAttemptFailure).
Status DagExecutor::RunRemoteNode(const Dag& dag, size_t index,
                                  std::vector<NodeRun>& runs, StatsState& stats,
                                  RunResilience& res,
                                  const DagScheduler::DeferFn& defer) {
  const DagNode& node = dag.node(index);
  Endpoint& target = *runs[index].endpoint;

  stats.MarkPhaseStart();
  // Frame assembly. The agent invokes on every received frame, so a fan-in
  // join's input must travel as ONE frame — predecessor chunks concatenated
  // by reference and vectored onto the wire, no host-side merge copy. Egress
  // is forced (and timed) HERE, not inside the hop, so the pending slot
  // below is fully written before it publishes: once the frame is on the
  // wire, the completion may race this thread. The slot keeps the assembled
  // buffer for the attempt's lifetime — a redispatch re-sends the same
  // immutable frame at refcount cost.
  TransferTiming timing;
  std::vector<uint64_t> part_bytes;
  part_bytes.reserve(node.preds.size());
  rr::Buffer wire;
  for (const size_t pred : node.preds) {
    auto part = runs[pred].payload.Materialize(&timing.wasm_io);
    RR_RETURN_IF_ERROR(part.status());
    wire.Append(*part);
    part_bytes.push_back(part->size());
  }

  // Everything below the slot registration runs on borrowed time: the
  // moment the slot is published, ANY resolution path — a loopback
  // completion, or the sweeper under a very short remote_deadline — can
  // complete the ticket and unblock Run(), unwinding the stack that `runs`,
  // `node`, and `target` live on. So: copy the names out, and drop this
  // node's claim on its predecessors NOW (the slot's frame holds the chunk
  // refcounts).
  const std::string node_name = node.name;
  const std::string function = target.shim->name();
  ReleaseConsumedPreds(node, runs);

  // The dispatch span is what the agent-side spans parent under: its context
  // rides the frame header, re-installed around EVERY attempt's dispatch.
  // The span is RECORDED up front — a loopback completion can finish the
  // whole run (and a caller snapshot the trace) before DispatchAttempt
  // returns.
  obs::SpanContext span_ctx{};
  {
    RR_TRACE_SPAN(dispatch_span, "dag", "dispatch:" + node_name);
    if (dispatch_span) {
      span_ctx = dispatch_span->context();
      dispatch_span->End();
    }
  }

  // Defer the node and register its continuation BEFORE the frame leaves:
  // the completion may fire — and the ticket complete — before the dispatch
  // call even returns. The slot publishes with its deadline DISARMED
  // (TimePoint::max()); DispatchAttempt arms it once a replica is chosen,
  // so the sweeper cannot expire an attempt that has not initiated.
  DagScheduler::Ticket ticket = defer();
  const uint64_t token = next_token_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(mail_mutex_);
    Pending slot;
    slot.function = function;
    slot.ticket = ticket;
    slot.dag = &dag;
    slot.index = index;
    slot.runs = &runs;
    slot.stats = &stats;
    slot.res = &res;
    slot.part_bytes = std::move(part_bytes);
    slot.frame_wasm_io = timing.wasm_io;
    slot.frame = std::move(wire);
    slot.trace_ctx = span_ctx;
    slot.phase = Pending::Phase::kInFlight;
    slot.dispatched_at = Now();
    slot.deadline = TimePoint::max();
    pending_.emplace(token, std::move(slot));
    if (!sweeper_.joinable()) {
      sweeper_ = std::thread([this] { SweeperLoop(); });
    }
  }
  DispatchAttempt(token);
  return Status::Ok();
}

// One attempt of one pending transfer: select a replica (breaker-gated,
// starting where the previous attempt left off), establish its hop, arm the
// attempt deadline, initiate the dispatch. Runs on a scheduler worker for
// the first attempt and on the sweeper thread for backoff redispatches.
void DagExecutor::DispatchAttempt(uint64_t token) {
  // Snapshot what the selection needs under the lock. The raw endpoint
  // pointers stay valid outside it: no resolution signal can fire for this
  // token until the dispatch below initiates (the deadline is disarmed, the
  // phase is in-flight so the sweeper won't redispatch, and the frame has
  // not touched a wire), so the ticket cannot complete and the Run's stack
  // cannot unwind.
  std::string function;
  rr::Buffer frame;
  size_t start_replica = 0;
  Endpoint* source = nullptr;
  Endpoint* target = nullptr;
  obs::SpanContext trace_ctx{};
  {
    MutexLock lock(mail_mutex_);
    const auto it = pending_.find(token);
    if (it == pending_.end()) return;  // already resolved
    Pending& slot = it->second;
    slot.phase = Pending::Phase::kInFlight;
    slot.deadline = TimePoint::max();
    function = slot.function;
    frame = slot.frame;
    start_replica = slot.replica;
    const DagNode& node = slot.dag->node(slot.index);
    source = (*slot.runs)[node.preds.front()].endpoint;
    target = (*slot.runs)[slot.index].endpoint;
    trace_ctx = slot.trace_ctx;
  }

  // Replica selection. A breaker refusal skips the replica in microseconds;
  // a failed establishment is that replica's wire failure — it feeds the
  // replica's breaker and the selection moves on, so a dead primary fails
  // over on the CONNECT, before any deadline is spent.
  core::HopTable& hops = manager_->hops();
  const size_t replica_count = target->replica_count();
  std::shared_ptr<Hop> hop;
  size_t chosen = 0;
  Status last_refusal =
      UnavailableError("no dispatchable replica for function " + function);
  for (size_t k = 0; k < replica_count && hop == nullptr; ++k) {
    const size_t r = (start_replica + k) % replica_count;
    const Status admitted = hops.AdmitDispatch(function, r);
    if (!admitted.ok()) {
      last_refusal = admitted;
      continue;
    }
    auto established = hops.Get(*source, *target, r);
    if (!established.ok()) {
      hops.RecordDispatchOutcome(function, r, established.status());
      last_refusal = established.status();
      continue;
    }
    hop = *std::move(established);
    chosen = r;
  }
  if (hop == nullptr) {
    // Every replica refused (or failed to connect). The refused round counts
    // as an attempt so an all-open breaker set converges on max_attempts ×
    // replicas instead of spinning until the budget drains.
    {
      MutexLock lock(mail_mutex_);
      const auto it = pending_.find(token);
      if (it == pending_.end()) return;
      ++it->second.total_attempts;
    }
    ResolveAttemptFailure(token, last_refusal, /*force_evict=*/false);
    return;
  }

  // Arm the attempt. Re-find the slot: selection ran unlocked and purely
  // defensive — nothing can have resolved the token — but a find keeps the
  // invariant local.
  bool wake_sweeper = false;
  bool failover = false;
  {
    MutexLock lock(mail_mutex_);
    const auto it = pending_.find(token);
    if (it == pending_.end()) return;
    Pending& slot = it->second;
    failover = slot.last_replica != Pending::kNoReplica &&
               chosen != slot.last_replica;
    slot.attempts_on_replica =
        chosen == slot.last_replica ? slot.attempts_on_replica + 1 : 1;
    slot.last_replica = slot.replica = chosen;
    ++slot.total_attempts;
    slot.hop = hop;
    slot.dispatched_at = Now();
    // Non-positive remote_deadline means UNBOUNDED (no backstop — failures
    // still surface through completion frames and dead channels), never
    // "expire immediately": an already-expired slot would let the sweeper
    // complete the ticket while this thread still runs.
    slot.deadline = remote_deadline_ > Nanos{0}
                        ? slot.dispatched_at + remote_deadline_
                        : TimePoint::max();
    wake_sweeper = slot.deadline < sweep_next_;
  }
  if (wake_sweeper) sweep_cv_.notify_all();
  if (failover) resilience::FailoverTotal().Inc();

  // Keep the recorded dispatch span's context installed while the frame
  // captures its header, so agent-side spans parent under it on every
  // attempt — retries included.
  std::optional<obs::ScopedTraceContext> dispatch_ctx;
  if (trace_ctx.valid()) dispatch_ctx.emplace(trace_ctx);
  const Payload payload{std::move(frame)};
  const std::shared_ptr<LifeGuard> life = life_;
  const Status sent = hop->DispatchAsync(
      payload, token, /*timing=*/nullptr, [life, token](Status outcome) {
        // OK = the wire accepted the transfer; the node's real outcome
        // arrives through the delivery callback. An error is terminal for
        // the ATTEMPT (completion frame, dead channel, drain deadline):
        // resolve it now instead of waiting out the backstop — the retry
        // engine decides whether the edge lives on.
        if (outcome.ok()) return;
        MutexLock lock(life->mutex);
        if (life->owner == nullptr) return;
        life->owner->ResolveAttemptFailure(token, outcome,
                                           /*force_evict=*/false);
      });
  if (!sent.ok()) {
    // Initiation failed: `done` never fires. Resolve through the engine —
    // which no-ops if a sweeper with a very short deadline already took the
    // slot.
    ResolveAttemptFailure(token, sent, /*force_evict=*/false);
  }
}

// Resolves one attempt's failure. Terminal — the ticket completes with the
// attempt's own status — when the run's policy is disabled, the status is
// not retryable, or the attempt ceiling (max_attempts × replicas) is
// reached; terminal with a typed kUnavailable when the run's shared retry
// budget is gone. Otherwise the slot re-registers under a FRESH token in
// backoff phase and the sweeper redispatches it at retry_at: no worker
// parks, and any late signal for the failed attempt finds its old token
// gone.
void DagExecutor::ResolveAttemptFailure(uint64_t token, const Status& status,
                                        bool force_evict) {
  std::optional<Pending> slot = TakePending(token);
  if (!slot.has_value()) return;  // already resolved: the first signal won

  // A null hop means the attempt never dispatched (every replica refused
  // admission): there is no new wire outcome — the connect failures already
  // fed their breakers inside the selection loop, and re-recording the
  // refusal would double-penalize the previously used replica.
  if (slot->hop != nullptr) {
    manager_->hops().RecordDispatchOutcome(slot->function, slot->last_replica,
                                           status);
  }
  // A deadline expiry evicts the hop with the failed transfer (a late
  // completion matches no pending token and is rejected). Other failures
  // evict only when the wire actually died — a typed stream-fatal refusal
  // (remote pool exhausted, unknown function) leaves the channel healthy and
  // the transfers sharing it unharmed.
  if (force_evict || (slot->hop != nullptr && !slot->hop->healthy())) {
    manager_->hops().Evict(slot->function);
  }

  const resilience::ResiliencePolicy& policy = slot->res->policy;
  const size_t replica_count =
      (*slot->runs)[slot->index].endpoint->replica_count();
  const uint32_t max_total =
      policy.max_attempts * static_cast<uint32_t>(replica_count);
  if (!policy.enabled || !resilience::RetryableDispatch(status) ||
      slot->total_attempts >= max_total) {
    // Terminal with the attempt's own status: callers (and tests) see the
    // real failure class — kDeadlineExceeded for a silent far side, the
    // typed refusal for a handler error — not a retry wrapper.
    slot->ticket.Complete(status);
    return;
  }
  if (!slot->res->budget.TryConsume()) {
    resilience::RetryBudgetExhaustedTotal().Inc();
    slot->ticket.Complete(
        UnavailableError("retry budget exhausted for run; last error: " +
                         status.ToString()));
    return;
  }

  // This replica's per-replica attempts are spent: advance the selection
  // start — failover in registration order, wrapping.
  if (slot->attempts_on_replica >= policy.max_attempts && replica_count > 1) {
    slot->replica = (slot->last_replica + 1) % replica_count;
  }
  slot->hop.reset();
  bool wake_sweeper = false;
  {
    MutexLock lock(mail_mutex_);
    // The jitter stream is shared by the run's concurrent edges; mail_mutex_
    // guards the draw, keeping the sequence (and tests) deterministic.
    const Nanos delay =
        resilience::NextBackoff(policy, slot->prev_backoff, slot->res->rng);
    slot->prev_backoff = delay;
    slot->phase = Pending::Phase::kBackoff;
    slot->retry_at = Now() + delay;
    slot->deadline = TimePoint::max();
    wake_sweeper = slot->retry_at < sweep_next_;
    const uint64_t fresh =
        next_token_.fetch_add(1, std::memory_order_relaxed);
    pending_.emplace(fresh, std::move(*slot));
  }
  resilience::RetryAttemptsTotal().Inc();
  if (wake_sweeper) sweep_cv_.notify_all();
}

// Publishes the node's output on the payload plane: the payload records the
// pool instance whose memory holds the region. A node with more than one
// successor egresses NOW — one copy into an immutable shared chunk, the
// guest region released before any successor runs — so N-way fan-out is
// O(1) payload copies and the successors only ever bump a refcount.
Status DagExecutor::FinishNode(const Dag& dag, size_t index,
                               std::vector<NodeRun>& runs,
                               core::Shim* instance,
                               core::InvokeOutcome outcome) {
  NodeRun& run = runs[index];
  run.payload = Payload::FromGuest(instance, outcome.output);
  if (dag.node(index).succs.size() > 1) {
    RR_TRACE_SPAN(egress_span, "dag", "egress:" + dag.node(index).name);
    RR_RETURN_IF_ERROR(
        run.payload.Materialize(&run.egress_wasm_io).status());
  }
  return Status::Ok();
}

std::optional<DagExecutor::Pending> DagExecutor::TakePending(uint64_t token) {
  MutexLock lock(mail_mutex_);
  const auto it = pending_.find(token);
  if (it == pending_.end()) return std::nullopt;
  Pending slot = std::move(it->second);
  pending_.erase(it);
  return slot;
}

Status DagExecutor::DeliverOutcome(const std::string& function,
                                   core::InvokeOutcome outcome, uint64_t token,
                                   core::ShimLease instance) {
  std::optional<Pending> slot = TakePending(token);
  if (!slot.has_value()) {
    // Nobody is waiting on this token: the transfer timed out, its run was
    // cancelled, or the sender never tracked it. Release the orphaned output
    // so the remote function's heap stays bounded (dropping the lease then
    // returns the instance to its pool).
    if (instance) {
      MutexLock shim_lock(instance->exec_mutex());
      (void)instance->ReleaseRegion(outcome.output);
    }
    resilience::StaleDeliveriesTotal().Inc();
    return TokenMismatchError("delivery for function " + function +
                              " carries token " + std::to_string(token) +
                              " matching no pending transfer");
  }

  // The attempt's replica answered: reset its breaker streak (a delivery
  // proves the wire AND the agent work, whatever the handler returned).
  if (slot->last_replica != Pending::kNoReplica) {
    manager_->hops().RecordDispatchOutcome(slot->function, slot->last_replica,
                                           Status::Ok());
  }

  // Resolve the deferred edge. Everything touching the run's stack state
  // (runs, stats, dag) happens BEFORE the ticket completes: completion may
  // release the Run and unwind that stack. Edge latency spans dispatch to
  // delivery — the remote invoke is part of the edge on this path; a merged
  // (fan-in) frame reports the shared wall time per contributing edge, with
  // each edge's own byte count.
  const Dag& dag = *slot->dag;
  const DagNode& node = dag.node(slot->index);
  std::vector<NodeRun>& runs = *slot->runs;
  const Nanos latency = Now() - slot->dispatched_at;
  for (size_t i = 0; i < node.preds.size(); ++i) {
    const size_t pred = node.preds[i];
    slot->stats->Record(
        runs[pred].endpoint->shim->name(), slot->function,
        core::TransferMode::kNetwork, slot->part_bytes[i], latency,
        slot->frame_wasm_io +
            runs[pred].egress_wasm_io /
                static_cast<int64_t>(dag.node(pred).succs.size()));
  }
  const Status finished =
      FinishNode(dag, slot->index, runs, instance.get(), outcome);
  slot->ticket.Complete(finished);
  // The instance lease drops when this returns — the agent-side instance
  // goes back to its pool; the output region it still hosts is pinned by
  // the node's payload and read under the instance's exec mutex.
  return Status::Ok();
}

// The sweeper serves two clocks. The remote_deadline backstop: with
// completion frames carrying failures and delivery callbacks carrying
// successes, an expiry only ever fires for a far side that went fully silent
// (a hung agent, a lost completion); it routes through ResolveAttemptFailure
// so the retry engine decides whether the edge is terminal. And the backoff
// clock: a slot parked in kBackoff redispatches here when retry_at passes —
// the ONLY redispatch site, so no scheduler worker ever sleeps a backoff
// out. A redispatch may block this thread on a connect (the agent client
// reconnects inline); concurrent expiries slip by that much, which the
// per-attempt deadlines absorb.
void DagExecutor::SweeperLoop() {
  MutexLock lock(mail_mutex_);
  while (!sweeper_stop_) {
    const TimePoint now = Now();
    TimePoint next = TimePoint::max();
    std::vector<std::pair<uint64_t, std::string>> expired;
    std::vector<uint64_t> due;
    for (const auto& [token, slot] : pending_) {
      if (slot.phase == Pending::Phase::kInFlight) {
        if (slot.deadline <= now) {
          expired.emplace_back(token, slot.function);
        } else {
          next = std::min(next, slot.deadline);
        }
      } else {
        if (slot.retry_at <= now) {
          due.push_back(token);
        } else {
          next = std::min(next, slot.retry_at);
        }
      }
    }
    if (!expired.empty() || !due.empty()) {
      // Slots stay registered while unlocked: ResolveAttemptFailure and
      // DispatchAttempt take (or re-find) them by token, so a completion
      // racing this scan simply wins and the loser no-ops.
      lock.unlock();
      for (const auto& [token, function] : expired) {
        ResolveAttemptFailure(
            token,
            DeadlineExceededError("no delivery from node agent for function " +
                                  function + " (token " +
                                  std::to_string(token) + ")"),
            /*force_evict=*/true);
      }
      for (const uint64_t token : due) DispatchAttempt(token);
      lock.lock();
      continue;  // pending_ may have changed while unlocked
    }
    sweep_next_ = next;
    if (next == TimePoint::max()) {
      sweep_cv_.wait(lock);
    } else {
      sweep_cv_.wait_until(lock, next);
    }
  }
}

core::NodeAgent::DeliveryCallback DagExecutor::DeliverySink() {
  return [this](const std::string& function, InvokeOutcome outcome,
                uint64_t token, ShimLease instance) {
    const Status status =
        DeliverOutcome(function, std::move(outcome), token, std::move(instance));
    if (!status.ok()) {
      RR_LOG(Debug) << "dag executor: rejected delivery: " << status;
    }
  };
}

// Transfers are complete: drop each predecessor's claim; the payload's
// refcount releases the storage with its last holder.
void DagExecutor::ReleaseConsumedPreds(const DagNode& node,
                                       std::vector<NodeRun>& runs) {
  for (const size_t pred : node.preds) {
    NodeRun& p = runs[pred];
    if (p.remaining_consumers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      p.payload.Reset();
    }
  }
}

}  // namespace rr::dag
