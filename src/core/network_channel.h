// Network data transfer (§4.3, Fig. 5, Algorithm 1): remote functions
// exchange data through a *virtual data hose* — a pipe populated from the
// function's memory with vmsplice(2) and drained into a TCP socket with
// splice(2), so payload bytes are never copied between user and kernel
// space on the send path.
//
//   source shim: read_memory_host -> vmsplice -> pipe -> splice -> socket
//   target shim: socket -> splice -> pipe -> read -> write into Wasm VM
//
// A fixed binary header (frame length + per-transfer correlation token)
// precedes the payload; Roadrunner serializes O(metadata), never the body.
// The token lets a receiver attribute each completion to exactly the
// transfer that requested it — a late completion from a timed-out run can
// no longer be mis-claimed by the next run. Token 0 means untracked
// (receive-coupled transfers that complete synchronously).
//
// Failure semantics (the hardened wire plane):
//
//  * Every transfer ends with a STATUS-BEARING ACK FRAME from the receiver:
//    [u8 magic 0xA6][u8 status code][u16 LE detail length][detail bytes].
//    The ack is sent only after the payload has durably landed in the target
//    (region placed AND written); a receiver-side failure — region
//    placement or write_memory_host — travels back
//    as its typed StatusCode plus a truncated detail string, so the sender
//    fails with the remote error instead of recording success or hanging.
//    (The old protocol was a single magic byte acked before the paper path
//    even placed the region.)
//  * Every blocking wait — header, body chunk, ack — is bounded by a
//    per-transfer deadline (set_transfer_deadline; threaded from
//    TransportOptions / api::Runtime::Options). A peer that dies or stalls
//    mid-transfer surfaces as kDeadlineExceeded/kDataLoss within the bound.
//  * A receiver that must fail a frame WITHOUT desyncing the channel drains
//    the body first (the placement-failure paths), so one bad
//    transfer does not kill the connection for the transfers behind it. Only
//    an unrecoverable mid-body error (partial splice, implausible header)
//    tears the channel down.
//  * No error path leaks a placed guest region: receive-side placement is
//    guarded by core::RegionGuard until ownership transfers.
#pragma once

#include <atomic>
#include <string>

#include "core/region_guard.h"
#include "core/shim.h"
#include "osal/pipe.h"
#include "osal/socket.h"
#include "osal/splice.h"

namespace rr::core {

// The virtual data hose: a pipe plus the splice plumbing, with a plain
// read/write fallback when the syscalls are unavailable.
class VirtualDataHose {
 public:
  static Result<VirtualDataHose> Create(size_t pipe_capacity = 1 << 20);

  // data (already in host-visible pages, e.g. a linear-memory view) -> fd.
  // Socket-side waits are bounded by `deadline` (kNoDeadline = unbounded).
  Status SendThrough(int socket_fd, ByteSpan data,
                     TimePoint deadline = osal::kNoDeadline);

  // fd -> destination span (guest memory slice).
  Status ReceiveThrough(int socket_fd, MutableByteSpan out,
                        TimePoint deadline = osal::kNoDeadline);

  bool using_splice() const { return use_splice_; }
  uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  explicit VirtualDataHose(osal::Pipe pipe)
      : pipe_(std::move(pipe)), use_splice_(osal::SpliceSupported()) {}

  osal::Pipe pipe_;
  bool use_splice_;
  uint64_t bytes_moved_ = 0;
};

class NetworkChannelSender {
 public:
  // Hand-written moves: the wire-health flag is atomic (unmovable), and a
  // sender is only ever moved during construction, before any concurrent
  // access exists.
  NetworkChannelSender(NetworkChannelSender&& other) noexcept
      : conn_(std::move(other.conn_)),
        hose_(std::move(other.hose_)),
        transfer_deadline_(other.transfer_deadline_),
        wire_ok_(other.wire_ok_.load(std::memory_order_relaxed)),
        bytes_sent_(other.bytes_sent_),
        timing_(other.timing_) {}
  NetworkChannelSender& operator=(NetworkChannelSender&& other) noexcept {
    if (this != &other) {
      conn_ = std::move(other.conn_);
      hose_ = std::move(other.hose_);
      transfer_deadline_ = other.transfer_deadline_;
      wire_ok_.store(other.wire_ok_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      bytes_sent_ = other.bytes_sent_;
      timing_ = other.timing_;
    }
    return *this;
  }

  static Result<NetworkChannelSender> Connect(const std::string& host,
                                              uint16_t port);

  // Wraps an already-connected socket.
  static Result<NetworkChannelSender> FromConnection(osal::Connection conn);

  // Algorithm 1, source side: read_memory_host on the region, then
  // vmsplice+splice through the hose. kShimStaging stages the region in a
  // shim buffer first (the paper's implementation); kDirectGuest vmsplices
  // the linear-memory pages themselves. `token` stamps the frame header.
  Status Send(Shim& source, const MemoryRegion& region,
              CopyMode mode = CopyMode::kShimStaging, uint64_t token = 0);
  Status SendBytes(ByteSpan data, uint64_t token = 0);

  // Host-resident payload from the zero-copy plane: one frame whose body is
  // hosed chunk by chunk straight from the shared storage — no staging copy,
  // no assembly of segmented (fan-in) payloads. Blocks until the receiver's
  // ack frame arrives; a non-OK ack returns the receiver's typed Status
  // (with its detail), an ack that never comes returns kDeadlineExceeded
  // once the transfer deadline expires, and a peer that died mid-transfer
  // returns kDataLoss.
  Status SendBuffer(const rr::BufferView& payload, uint64_t token = 0);

  // Bounds every blocking wait of one transfer (body send, ack). Zero or
  // negative = unbounded (the default, for compatibility with bare channel
  // users; the transport layer always sets it).
  void set_transfer_deadline(Nanos timeout) { transfer_deadline_ = timeout; }
  Nanos transfer_deadline() const { return transfer_deadline_; }

  // False once the wire died — killed by a transfer that failed without a
  // decoded ack (indeterminate ack stream).
  // A caching layer uses this to decide whether a failed transfer poisoned
  // the channel (evict, reconnect) or left it healthy (a typed in-sync
  // refusal: keep serving, other transfers on this hop are unaffected).
  bool wire_ok() const { return wire_ok_.load(std::memory_order_relaxed); }

  uint64_t bytes_sent() const { return bytes_sent_; }
  bool using_splice() const { return hose_.using_splice(); }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  NetworkChannelSender(osal::Connection conn, VirtualDataHose hose)
      : conn_(std::move(conn)), hose_(std::move(hose)) {}

  // Kills the wire without destroying the sender: a Send already in flight
  // (possibly on another thread) fails with EPIPE, and the peer's receiver
  // sees EOF.
  void ShutdownWire();

  // Reads and decodes the receiver's ack frame. `*ack_decoded` is set true
  // once a well-formed ack was consumed (whatever status it carries) — the
  // channel is then provably still synchronized; on false the ack stream is
  // dead or indeterminate and the channel must not be reused.
  Status ReadAck(TimePoint deadline, bool* ack_decoded);

  osal::Connection conn_;
  VirtualDataHose hose_;
  Nanos transfer_deadline_{0};
  // Atomic: Sends run under the owning hop's mutex, but a health probe may
  // race them from other threads.
  std::atomic<bool> wire_ok_{true};
  uint64_t bytes_sent_ = 0;
  TransferTiming timing_;
};

// Flag bit on the frame header's length field signalling a trace-context
// extension. The length is validated to fit kMaxFrameBytes (< 2^32), so the
// high bits of the wire field are guaranteed zero on untraced frames — they
// parse unchanged, and a frame carrying the flag is followed by 16 extra
// header bytes: [u64 trace id][u64 parent span id].
constexpr uint64_t kFrameTraceFlag = 1ull << 63;

// The frame header preceding every payload: 16 fixed bytes (length +
// correlation token), plus the optional 16-byte trace-context extension
// (kFrameTraceFlag). trace_id 0 = no context (untraced frame, or tracing
// off).
struct FrameInfo {
  uint64_t length = 0;
  uint64_t token = 0;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

class NetworkChannelReceiver {
 public:
  static Result<NetworkChannelReceiver> FromConnection(osal::Connection conn);

  // Two-phase receive: blocks for the next frame's header alone, so a
  // caller can park here without holding the target shim, then deliver the
  // body under the shim's lock (ReceiveBody). The default
  // kNoDeadline is deliberate — an idle channel waits for its next frame
  // indefinitely; pass a deadline when the header is part of one bounded
  // transfer (ReceiveInto does).
  Result<FrameInfo> ReceiveHeader(TimePoint deadline = osal::kNoDeadline);

  // Delivers the frame's body into `target` and acks the transfer. The ack
  // frame is sent only after the payload durably landed (region placed and
  // written); on a receiver-side failure the error ack carries the typed
  // status back to the sender. When the failure path managed to drain the
  // body and ack (placement/write failures), the channel is still in sync —
  // `*rejected_in_sync` is set true and the caller may keep serving frames;
  // when false on error, the channel is desynced and must be torn down.
  // No failure leaks a placed region (RegionGuard on both copy modes).
  Result<MemoryRegion> ReceiveBody(const FrameInfo& frame, Shim& target,
                                   CopyMode mode = CopyMode::kShimStaging,
                                   const RegionPlacer* place = nullptr,
                                   bool* rejected_in_sync = nullptr);

  // Algorithm 1, target side: splice from the socket into the hose,
  // allocate_memory(length) in the target, write into its linear memory.
  // One-shot header+body; `token`, when non-null, receives the frame's
  // correlation token. A non-null `place` overrides the allocation: the
  // payload lands in the region it returns (a fan-in gather slice).
  Result<MemoryRegion> ReceiveInto(Shim& target,
                                   CopyMode mode = CopyMode::kShimStaging,
                                   uint64_t* token = nullptr,
                                   const RegionPlacer* place = nullptr);
  Result<InvokeOutcome> ReceiveAndInvoke(Shim& target,
                                         CopyMode mode = CopyMode::kShimStaging,
                                         uint64_t* token = nullptr);

  // Bounds every blocking wait of one transfer (body, ack write; the header
  // too on the one-shot ReceiveInto path). Zero or negative = unbounded.
  void set_transfer_deadline(Nanos timeout) { transfer_deadline_ = timeout; }
  Nanos transfer_deadline() const { return transfer_deadline_; }

  uint64_t bytes_received() const { return bytes_received_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  NetworkChannelReceiver(osal::Connection conn, VirtualDataHose hose)
      : conn_(std::move(conn)), hose_(std::move(hose)) {}

  // Sends the status-bearing ack frame (detail truncated to the wire cap).
  Status SendAck(const Status& status, TimePoint deadline);

  // Reads and discards `length` body bytes so an error ack can follow on a
  // still-synchronized channel.
  Status DrainBody(uint64_t length, TimePoint deadline);

  // The refusal protocol: drain the (still fully on-wire) body, error-ack
  // with `reason`. Sets `*rejected_in_sync` once both succeeded — the
  // channel is then provably synchronized for the next frame. Returns the
  // transport failure if the channel died instead.
  Status DrainAndReject(uint64_t body_length, const Status& reason,
                        TimePoint deadline, bool* rejected_in_sync);

  osal::Connection conn_;
  VirtualDataHose hose_;
  Nanos transfer_deadline_{0};
  uint64_t bytes_received_ = 0;
  TransferTiming timing_;
};

class NetworkChannelListener {
 public:
  static Result<NetworkChannelListener> Bind(uint16_t port);

  uint16_t port() const { return listener_.port(); }

  Result<NetworkChannelReceiver> Accept();

 private:
  explicit NetworkChannelListener(osal::TcpListener listener)
      : listener_(std::move(listener)) {}

  osal::TcpListener listener_;
};

}  // namespace rr::core
