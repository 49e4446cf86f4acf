// The polymorphic transport layer: one `Transport`/`Hop` interface over the
// three placement-selected transfer mechanisms (user space, kernel space,
// network — §3.2.3), so executors move data without ever switching on the
// mode and future backends (shared-memory ring, RDMA-sim, ...) plug into the
// HopTable without touching executor code.
//
// A Transport knows how to *establish* a channel for its mode; a Hop is one
// established, cached channel between a (source, target) pair. Hops speak
// the zero-copy payload plane (core/payload.h): a guest-resident payload
// takes the mode's classic source-side path (the single user-space copy /
// shim staging), while a host-resident payload — the shared chunk an N-way
// fan-out hands to every successor — is read zero-copy from its ref-counted
// storage, with network backends performing vectored writes over the chunks.
//
// Hops are internally synchronized: concurrent workflow invocations may
// forward over the same hop (a hop's single wire is what they serialize
// on). Callers pass the *leased* target instance into Forward — the pool
// layer routes concurrent transfers into one function onto distinct
// instances, so they proceed in parallel; each instance's exec mutex is
// taken only around the memory-plane phase, synchronizing against payload
// readers of regions still resident in that instance.
#pragma once

#include <functional>
#include <memory>

#include "core/endpoint.h"
#include "core/payload.h"

namespace rr::core {

// Wire-behavior knobs a transport applies to the hops it establishes.
// Threaded HopTable -> Transport::Connect so api::Runtime::Options can set
// them once for every channel of a workflow.
struct TransportOptions {
  // Bound on one transfer's blocking waits (header/body/ack on the network
  // plane; peer-idle timeout on the kernel plane). A dead or stalled peer
  // surfaces as kDeadlineExceeded within this bound instead of hanging the
  // transfer. Non-positive = unbounded.
  //
  // On the network plane this is an ABSOLUTE per-transfer bound, armed at
  // frame start — not a progress bound like the kernel plane's socket
  // timeouts. Size it to the largest frame you expect over the slowest
  // link (a multi-GiB frame over a slow WAN legitimately takes minutes);
  // the 30 s default comfortably covers paper-scale payloads on the
  // emulated 100 Mbps testbed.
  Nanos transfer_deadline = std::chrono::seconds(30);
};

// One cached duplex channel between a source and a target function.
class Hop {
 public:
  virtual ~Hop() = default;

  virtual TransferMode mode() const = 0;

  // True when delivery and invocation are fused on the far side: the stream
  // lands at a remote NodeAgent whose worker performs Algorithm 1's
  // receive+invoke. Such hops cannot Forward (deliver-only); they
  // DispatchAsync, and the output returns through the agent's delivery
  // callback.
  virtual bool invoke_coupled() const { return false; }

  // Delivers `payload` into `target`'s linear memory without invoking it —
  // the fan-in building block. `target` is the instance the caller leased
  // from the target function's pool (the lease outlives the call). When
  // `into` is non-null it names a destination region of exactly
  // payload.size() bytes covered by an existing registration (one slice of a
  // fan-in gather region); otherwise the hop allocates a fresh input region.
  // Fails with kFailedPrecondition on invoke-coupled hops.
  virtual Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                                       TransferTiming* timing = nullptr,
                                       const MemoryRegion* into = nullptr) = 0;

  // Forward + invoke the leased target instance once on the delivered
  // payload: the per-hop building block of chains and single-predecessor DAG
  // nodes. The outcome's output region lives in `target` — keep the lease
  // until it is consumed.
  virtual Result<InvokeOutcome> ForwardAndInvoke(const Payload& payload,
                                                 Shim& target,
                                                 TransferTiming* timing = nullptr);

  // Receives the transfer's terminal status once the far side has spoken:
  // the remote *invocation* outcome, carried by the agent's completion frame
  // (a handler failure arrives here immediately). A successful invocation's
  // output still travels through the agent's delivery callback.
  using DispatchDoneFn = std::function<void(Status)>;

  // Invoke-coupled dispatch: sends the payload as one stream stamped with
  // the per-transfer correlation `token` (a segmented fan-in payload travels
  // as one stream, chunked over its segments) and returns without waiting
  // for the wire. Returns non-OK only when the dispatch could not be
  // initiated — `done` then never fires. On OK, `done` fires exactly once
  // (possibly before this call returns, and possibly on a reactor thread —
  // it must not block on the dispatching thread's locks). Fails with
  // kFailedPrecondition on local hops, whose transfers complete
  // synchronously through Forward.
  virtual Status DispatchAsync(const Payload& payload, uint64_t token,
                               TransferTiming* timing, DispatchDoneFn done);

  // False once the hop's underlying wire has died — torn down by Close, or
  // killed by a transfer that failed without a decoded ack. A failed
  // transfer on a healthy hop (a typed in-sync rejection) leaves healthy()
  // true: callers must NOT evict such hops, or they collapse the other
  // transfers sharing the channel. Wireless hops are always healthy.
  virtual bool healthy() const { return true; }

  // Kills the underlying wire (idempotent) without invalidating the object:
  // the HopTable calls this on eviction while other runs may still hold the
  // hop, so implementations must tolerate transfers in flight — those fail
  // with the dead channel and the object dies with its last shared owner.
  virtual void Close() {}
};

// A transport backend: establishes hops for one transfer mode.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransferMode mode() const = 0;

  // Establishes a channel between two registered endpoints. Called lazily on
  // a pair's first transfer; the returned hop is cached by the HopTable and
  // reused by every subsequent run. `options` carries the table's wire
  // options (deadlines) for the hop to apply.
  virtual Result<std::unique_ptr<Hop>> Connect(
      Endpoint& source, const Endpoint& target,
      const TransportOptions& options) = 0;
};

// The built-in backends (installed by HopTable's constructor).
std::unique_ptr<Transport> MakeUserSpaceTransport();
std::unique_ptr<Transport> MakeKernelTransport();
std::unique_ptr<Transport> MakeNetworkTransport();

}  // namespace rr::core
