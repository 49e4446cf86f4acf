// rr::api::Runtime — the unified asynchronous invocation API.
//
// One façade over the whole middleware: register endpoints once, then
// Submit(ChainSpec | DagSpec, input) returns an Invocation handle
// immediately. Any number of invocations proceed concurrently over the
// shared hop cache (established channels are reused across runs and across
// in-flight invocations), the shared DAG worker pool, and the polymorphic
// Transport layer — callers never touch WorkflowManager, dag::DagExecutor,
// or per-hop plumbing directly (the deprecated synchronous entries,
// WorkflowManager::RunChain and the direct DagExecutor::Execute, are gone;
// Submit is the only way to run a workflow).
//
// Payloads ride the zero-copy plane end to end: Submit(spec, rr::Buffer)
// shares the caller's chunks with every in-flight run (no per-submit copy —
// submitting the same 64 MiB input N times costs one buffer), and Wait()
// returns the sink outputs as a Buffer whose chunks are the sinks' egressed
// bytes, concatenated by reference.
//
//   api::Runtime rt("wf");
//   rt.Register(endpoint_a); rt.Register(endpoint_b); ...
//   auto inv = rt.Submit(api::ChainSpec{{"a", "b", "c"}}, input);
//   ... // submit more; all run concurrently
//   const Result<rr::Buffer>& out = (*inv)->Wait();
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/node_agent.h"
#include "core/workflow.h"
#include "dag/dag.h"
#include "dag/executor.h"
#include "obs/introspect.h"
#include "telemetry/metrics.h"

namespace rr::api {

// A linear pipeline: f1 -> f2 -> ... -> fn (every name registered).
struct ChainSpec {
  std::vector<std::string> functions;
};

// An arbitrary fan-out/fan-in workflow, validated by dag::DagBuilder.
struct DagSpec {
  dag::Dag dag;
  // Per-workflow failure-recovery override: when set, this run retries its
  // remote dispatches under THIS policy instead of the runtime-wide
  // Options::resilience default (set one with enabled=false to opt a
  // latency-critical workflow out of retries entirely).
  std::optional<resilience::ResiliencePolicy> resilience;
};

// Wall-clock accounting of one submitted run.
struct RunStats {
  Nanos queued{0};              // Submit() -> execution start
  Nanos total{0};               // execution start -> completion
  telemetry::DagRunStats dag;   // per-edge samples of the run
};

// A future-like handle to one submitted run. Thread-safe; share freely.
class Invocation {
 public:
  uint64_t id() const { return id_; }

  // The trace id Submit minted for this run (0 when tracing was off at
  // submit time). Every span of the run — including remote-agent spans on
  // other processes — carries this id; grep it in logs, find it in /trace.
  uint64_t trace_id() const { return trace_id_; }

  bool Done() const;

  // Blocks until the run completes and returns its result: the sink
  // functions' outputs, concatenated in declaration order (by chunk sharing
  // — no merge copy). The reference stays valid for the Invocation's
  // lifetime.
  const Result<rr::Buffer>& Wait();

  // Bounded wait; true when the run completed within `timeout`.
  bool WaitFor(Nanos timeout);

  // Registers a completion callback: runs exactly once, on the completing
  // driver thread right after the result publishes — or inline, on the
  // caller's thread, when the run is already done. This is the event-driven
  // counterpart to Wait(): the gateway parks a Responder in one of these
  // instead of parking a thread. Callbacks must not block and must not call
  // back into Wait() on this invocation (it is already done when they run;
  // reading the result directly is fine).
  void NotifyDone(std::function<void()> callback);

  // Valid once Done() — meaningless while the run is in flight. Reads
  // stats_ without mutex_: publication happens-before any caller that
  // observed Done() (both touch mutex_), so the unlocked read is safe once
  // the contract is honored; the analysis cannot see that ordering.
  const RunStats& stats() const RR_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }

 private:
  friend class Runtime;
  Invocation(uint64_t id, dag::Dag dag, rr::Buffer input)
      : id_(id), dag_(std::move(dag)), input_(std::move(input)) {}

  const uint64_t id_;
  dag::Dag dag_;
  rr::Buffer input_;
  // The DagSpec's per-run retry-policy override, carried to the executor.
  std::optional<resilience::ResiliencePolicy> resilience_;
  uint64_t trace_id_ = 0;
  TimePoint submitted_{};

  mutable Mutex mutex_;
  CondVar cv_;
  bool done_ RR_GUARDED_BY(mutex_) = false;
  Result<rr::Buffer> result_ RR_GUARDED_BY(mutex_){rr::Buffer{}};
  RunStats stats_ RR_GUARDED_BY(mutex_);
  std::vector<std::function<void()>> done_callbacks_ RR_GUARDED_BY(mutex_);
};

class Runtime {
 public:
  struct Options {
    // Invocations driven concurrently (queued beyond this). 0 = one driver
    // per hardware thread, at least 8 so a burst of submissions overlaps
    // even on small hosts.
    size_t max_in_flight = 0;
    // DAG scheduler worker pool, shared by every in-flight run. 0 = one per
    // hardware thread.
    size_t dag_workers = 0;
    // BACKSTOP on one remote (NodeAgent) edge: dispatch to delivery
    // callback, including the remote invoke. On the default mux wire a
    // remote failure arrives as a completion frame and fails the edge
    // immediately — this deadline only fires when the far side goes fully
    // silent (a hung agent, a lost completion).
    Nanos remote_deadline = std::chrono::seconds(60);
    // Bound on one wire transfer's blocking waits (header/body/ack), applied
    // to every hop this runtime establishes (core::TransportOptions). A
    // receiver that dies mid-body or never acks fails the edge with
    // kDeadlineExceeded within this bound. Non-positive = unbounded.
    Nanos transfer_deadline = std::chrono::seconds(30);
    // Enables invocation tracing process-wide: Submit mints a trace id per
    // run, spans record into the obs::Tracer ring, frames carry the trace
    // context to remote agents. Off by default — the disabled instrumentation
    // costs one clock read per span site.
    bool tracing = false;
    // Ring capacity for finished spans when tracing is on (0 = keep the
    // tracer's current capacity).
    size_t trace_capacity = 0;
    // Serves GET /metrics (Prometheus text), /healthz (JSON), and /trace
    // (Chrome trace JSON) on 127.0.0.1:introspection_port. Off by default.
    bool serve_introspection = false;
    uint16_t introspection_port = 0;  // 0 = ephemeral; read introspection_port()
    // Failure-recovery plane (resilience/policy.h): per-edge retries with
    // backoff, per-replica circuit breakers, and agent failover. Disabled by
    // default (resilience.enabled = false) — enabling it also arms the hop
    // table's breakers with resilience.breaker. A DagSpec may override the
    // retry policy per run; breakers are runtime-wide.
    resilience::ResiliencePolicy resilience;
  };

  explicit Runtime(std::string workflow);
  Runtime(std::string workflow, Options options);

  // Drains: blocks until every submitted invocation has completed.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Control plane. Not safe to call while a run uses the affected endpoint.
  Status Register(core::Endpoint endpoint);
  Status Unregister(const std::string& name);

  // Submits a run and returns its handle immediately. The Buffer overloads
  // share the caller's chunks — zero copies at Submit, however many runs the
  // same buffer feeds; the ByteSpan overloads copy once into the plane so
  // the caller's span may be reused at once. Specs are validated here (shape
  // + every function registered), so a returned handle always corresponds to
  // a run that will execute.
  Result<std::shared_ptr<Invocation>> Submit(const ChainSpec& spec,
                                             rr::Buffer input);
  Result<std::shared_ptr<Invocation>> Submit(const DagSpec& spec,
                                             rr::Buffer input);
  Result<std::shared_ptr<Invocation>> Submit(const ChainSpec& spec,
                                             ByteSpan input);
  Result<std::shared_ptr<Invocation>> Submit(const DagSpec& spec,
                                             ByteSpan input);

  // Delivery callback to wire into NodeAgent::RegisterFunction for every
  // function reached through a remote agent ingress.
  core::NodeAgent::DeliveryCallback DeliverySink();

  // The underlying registry + hop cache (control plane, telemetry, tests).
  core::WorkflowManager& manager() { return manager_; }

  size_t in_flight() const;

  // The introspection endpoint's bound port; 0 when not serving (option off,
  // or the bind failed — which is logged, not fatal).
  uint16_t introspection_port() const {
    return introspection_ != nullptr ? introspection_->port() : 0;
  }

 private:
  Result<std::shared_ptr<Invocation>> Enqueue(
      dag::Dag dag, rr::Buffer input,
      std::optional<resilience::ResiliencePolicy> resilience = std::nullopt);
  void DriverLoop();

  core::WorkflowManager manager_;
  dag::DagExecutor executor_;
  // Reset at the top of the destructor, before anything else tears down:
  // the request handler reads in_flight() off this runtime.
  std::unique_ptr<obs::IntrospectionServer> introspection_;

  mutable Mutex mutex_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Invocation>> queue_ RR_GUARDED_BY(mutex_);
  size_t executing_ RR_GUARDED_BY(mutex_) = 0;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> next_id_{1};
  std::vector<std::thread> drivers_;
};

}  // namespace rr::api
