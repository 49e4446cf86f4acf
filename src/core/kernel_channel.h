// Kernel-space data transfer (§4.2, Fig. 4b): co-located functions in
// separate sandboxes exchange data through a UNIX domain socket between
// their shims — kernel-buffered, serialization-free frames, no network.
#pragma once

#include <string>

#include "core/shim.h"
#include "osal/socket.h"
#include "serde/framing.h"

namespace rr::obs {
class Counter;
}  // namespace rr::obs

namespace rr::core {

// Sender half, held by the source function's shim.
class KernelChannelSender {
 public:
  static Result<KernelChannelSender> Connect(const std::string& socket_path);
  static KernelChannelSender FromConnection(osal::Connection conn) {
    return KernelChannelSender(std::move(conn));
  }

  // Sends the source function's output region as one frame (steps 1-3 of
  // Fig. 4b). kShimStaging reads the region into a shim buffer first (the
  // paper's read_output path); kDirectGuest writes straight from the
  // linear-memory view.
  Status Send(Shim& source, const MemoryRegion& region,
              CopyMode mode = CopyMode::kShimStaging);

  // Raw-bytes variant used when the payload is already host-resident. The
  // BufferView overload performs one vectored write over the payload's
  // shared chunks — no staging copy, no assembly.
  Status SendBytes(ByteSpan data);
  Status SendBytes(const rr::BufferView& payload);

  uint64_t bytes_sent() const { return bytes_sent_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  explicit KernelChannelSender(osal::Connection conn) : conn_(std::move(conn)) {}

  osal::Connection conn_;
  uint64_t bytes_sent_ = 0;
  TransferTiming timing_;
};

// Receiver half, held by the target function's shim.
class KernelChannelReceiver {
 public:
  static KernelChannelReceiver FromConnection(osal::Connection conn) {
    return KernelChannelReceiver(std::move(conn));
  }

  // Steps 4-6 of Fig. 4b: read the frame length, allocate_memory in the
  // target function, and deliver the payload into its linear memory.
  // kShimStaging receives into a shim buffer then write_memory_host copies
  // it in; kDirectGuest reads from the kernel straight into the guest pages.
  // A non-null `place` overrides the allocation: the payload lands in the
  // region it returns (a slice of a fan-in gather region).
  Result<MemoryRegion> ReceiveInto(Shim& target,
                                   CopyMode mode = CopyMode::kShimStaging,
                                   const RegionPlacer* place = nullptr);

  // Receive + run the target function.
  Result<InvokeOutcome> ReceiveAndInvoke(Shim& target,
                                         CopyMode mode = CopyMode::kShimStaging);

  uint64_t bytes_received() const { return bytes_received_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  explicit KernelChannelReceiver(osal::Connection conn) : conn_(std::move(conn)) {}

  osal::Connection conn_;
  uint64_t bytes_received_ = 0;
  TransferTiming timing_;
};

// Listener the target shim binds; Accept yields a receiver.
class KernelChannelListener {
 public:
  static Result<KernelChannelListener> Bind(const std::string& socket_path);

  Result<KernelChannelReceiver> Accept();

  const std::string& path() const { return listener_.path(); }

 private:
  explicit KernelChannelListener(osal::UnixListener listener)
      : listener_(std::move(listener)) {}

  osal::UnixListener listener_;
};

// In-process pair for tests and single-process benchmarks (the two shims
// still talk through a real AF_UNIX kernel buffer).
Result<std::pair<KernelChannelSender, KernelChannelReceiver>>
MakeKernelChannelPair();

// Both ends of one in-process stream channel — an AF_UNIX pair for the
// kernel hop, a connected loopback TCP pair for the network hop — driven by
// the calling thread alone. Transfer moves one [u64 length][body] frame from
// source bytes (a producer's linear-memory view or shared host chunks)
// straight into an already placed destination span (the target's linear
// memory). The two ends are non-blocking: the pump interleaves sendmsg and
// recvmsg, so a frame larger than the socket buffer drains as it fills, and
// it polls both descriptors only when neither end makes progress. The kernel's
// copies into and out of its socket buffer are the only byte movement — no
// host staging buffer, no helper thread.
class FramePump {
 public:
  // The registry series the pump counts on, chosen by the transport that
  // builds it. A null member is not counted.
  struct Counters {
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* frames_sent = nullptr;
    obs::Counter* deadline_expiries = nullptr;
    obs::Counter* kills = nullptr;  // failed transfers: the pump is dead
  };

  // Takes both ends of one connected stream pair and makes them non-blocking.
  static Result<FramePump> Create(osal::Connection send_end,
                                  osal::Connection recv_end, Counters counters);

  // Moves `source` into `dest` (sizes must match) as one frame. Fails with
  // kDeadlineExceeded when neither end makes progress for `idle_bound`
  // (non-positive = unbounded). Any failure may leave part of the frame in
  // the socket: the caller must then stop using the pump.
  Status Transfer(const rr::BufferView& source, MutableByteSpan dest,
                  Nanos idle_bound);

  // Shuts both ends down without closing the descriptors: a transfer in
  // flight on another thread fails at its next syscall. Idempotent.
  void Shutdown();

 private:
  FramePump(osal::Connection send_end, osal::Connection recv_end,
            Counters counters)
      : send_end_(std::move(send_end)),
        recv_end_(std::move(recv_end)),
        counters_(counters) {}

  Status MoveFrame(const rr::BufferView& source, MutableByteSpan dest,
                   Nanos idle_bound);

  osal::Connection send_end_;
  osal::Connection recv_end_;
  Counters counters_;
};

// The kernel hop's series: rr_channel_bytes_total{mode="kernel"}.
FramePump::Counters KernelPumpCounters();

}  // namespace rr::core
