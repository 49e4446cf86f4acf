// NodeAgent: the per-node ingress for network-mode transfers.
//
// The paper's deployment runs one shim per function; transfers from another
// node arrive at the node's address and must reach the right function's
// shim. NodeAgent owns that ingress, and it speaks one wire: the multiplexed
// agent protocol (mux_protocol.h) — many concurrent streams per connection,
// interleaved chunk frames, per-stream flow-control windows, and completion
// frames that carry the *invocation* outcome back to the sender (a remote
// handler failure fails the sender's edge immediately instead of waiting out
// its delivery deadline). A connection whose first two bytes are not the mux
// preamble magic is dropped. The sender side is core::MuxClient
// (mux_client.h).
//
// The ingress is event-driven: one epoll reactor thread per core-shard
// multiplexes every connection — no thread per connection, no blocking
// header park. Connections are round-robined across shards at accept; each
// shard's loop stages stream bodies as bytes arrive and hands completed
// streams to a fixed invoke-worker pool (the only place Wasm runs), so ten
// thousand idle or trickling peers cost table entries, not threads. Accept
// survives transient errors, pool exhaustion refuses a stream with a typed
// completion, stalled streams are failed at the transfer deadline, and no
// failure leaks a placed region. Connections idle past
// Options::idle_timeout with nothing in flight are swept; senders
// re-establish transparently on their next dispatch.
//
// Instance pools: each registered function is backed by a ShimPool; every
// received stream leases its own instance for the land+invoke, so
// concurrent transfers into one function fan out across the pool.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/shim.h"
#include "core/shim_pool.h"
#include "osal/socket.h"

namespace rr::core {

// True for accept(2) failures an ingress should ride out (fd exhaustion,
// aborted handshakes) rather than die on. Exposed for tests.
bool IsTransientAcceptError(const Status& status);

class NodeAgent {
 public:
  struct Options {
    // Bounds how long a stream may sit mid-body, and a connection mid-frame,
    // without progress before it is dropped. The sender-side transfer
    // deadline is the other half of the bound; together they guarantee a
    // wedged peer frees its staging state. Non-positive = unbounded.
    // NOTE: first member — existing call sites aggregate-initialize
    // Options{deadline}.
    Nanos transfer_deadline = std::chrono::seconds(30);

    // Ingress shape. 0 = pick from hardware concurrency. Shards are epoll
    // loops (connections round-robin across them); invoke workers are
    // the only threads that run Wasm. Total agent threads = shards +
    // invoke_workers, independent of connection or stream count.
    size_t shards = 0;
    size_t invoke_workers = 0;

    // Connections with no frame mid-receive, no stream open,
    // and no invoke in flight for this long are closed. Senders reconnect
    // transparently on their next dispatch. Non-positive = never swept.
    Nanos idle_timeout = std::chrono::seconds(60);

    // Mux admission caps, per connection (0 = the build default, in
    // parentheses). An open frame past either cap is refused with a typed
    // kResourceExhausted completion — stream-fatal, never connection-fatal.
    // `max_conn_staged_bytes` bounds COMMITTED body bytes: window credit
    // granted but unreceived, bytes staged, and bytes in invoke — a hard
    // heap bound, enforced by treating data beyond a stream's granted
    // window as a flow-control violation (connection-fatal).
    size_t max_conn_streams = 0;       // (4096)
    size_t max_conn_staged_bytes = 0;  // (128 MiB)
  };

  // Called after a payload has been delivered and the function invoked. The
  // outcome's output region lives in `instance` — the pool lease the agent
  // acquired for this frame; the consumer keeps it until the output is
  // egressed or released (dropping it returns the instance to the pool).
  // `token` is the frame's correlation token: the consumer matches the
  // completion to the exact transfer that sent it (0 = sender did not track
  // the transfer).
  using DeliveryCallback =
      std::function<void(const std::string& function, InvokeOutcome outcome,
                         uint64_t token, ShimLease instance)>;

  // Binds the node ingress on 127.0.0.1:port (0 = ephemeral).
  static Result<std::unique_ptr<NodeAgent>> Start(uint16_t port);
  static Result<std::unique_ptr<NodeAgent>> Start(uint16_t port,
                                                  Options options);

  ~NodeAgent();

  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  uint16_t port() const { return listener_.port(); }

  // Makes a local function reachable from remote nodes. The pool overload
  // shares ownership; the bare-shim overload adopts the shim as a pool of 1
  // (memoized — a WorkflowManager registration of the same shim shares it),
  // and the shim must outlive the agent (or be unregistered first).
  Status RegisterFunction(std::shared_ptr<ShimPool> pool,
                          DeliveryCallback on_delivery = {});
  Status RegisterFunction(Shim* shim, DeliveryCallback on_delivery = {});
  Status UnregisterFunction(const std::string& name);

  uint64_t transfers_completed() const { return transfers_completed_.load(); }

  // Streams refused at admission or for an exhausted pool, each with a
  // typed error completion frame that failed exactly one sender-side
  // transfer.
  uint64_t transfers_refused() const { return transfers_refused_.load(); }

  // Connections currently served. Observability for the idle-sweep tests.
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  void Shutdown();

 private:
  struct ReactorPlane;
  friend struct ReactorPlane;

  // Out-of-line: ReactorPlane is incomplete here.
  NodeAgent(osal::TcpListener listener, Options options);

  struct Entry {
    std::shared_ptr<ShimPool> pool;
    DeliveryCallback on_delivery;
  };

  osal::TcpListener listener_;
  const Options options_;
  Mutex mutex_;
  std::map<std::string, Entry> functions_ RR_GUARDED_BY(mutex_);
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> transfers_completed_{0};
  std::atomic<uint64_t> transfers_refused_{0};
  std::atomic<size_t> active_connections_{0};
  std::unique_ptr<ReactorPlane> reactor_plane_;
};

}  // namespace rr::core
