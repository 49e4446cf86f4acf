#include "core/kernel_channel.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <vector>

#include "core/region_guard.h"
#include "obs/metrics.h"

namespace rr::core {
namespace {

// Channel traffic by mode: one family, one series per transfer mechanism
// (`mode="kernel"` here, "user"/"network" in their channels).
obs::Counter& KernelBytesSent() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_channel_bytes_total", "Payload bytes moved through data channels",
      {{"mode", "kernel"}, {"direction", "sent"}});
  return *counter;
}

obs::Counter& KernelBytesReceived() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_channel_bytes_total", "Payload bytes moved through data channels",
      {{"mode", "kernel"}, {"direction", "received"}});
  return *counter;
}

void Count(obs::Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Inc(n);
}

// The untransferred tail of a gather (send) or scatter (receive) list.
struct IoCursor {
  std::vector<iovec> iov;
  size_t at = 0;

  void Add(void* data, size_t size) {
    if (size > 0) iov.push_back({data, size});
  }
  bool done() const { return at == iov.size(); }
  msghdr Message() {
    msghdr msg{};
    msg.msg_iov = iov.data() + at;
    msg.msg_iovlen = iov.size() - at;
    return msg;
  }
  // Skips `n` transferred bytes: whole entries, then part of the next.
  void Advance(size_t n) {
    while (at < iov.size() && n >= iov[at].iov_len) {
      n -= iov[at].iov_len;
      ++at;
    }
    if (n > 0) {
      iov[at].iov_base = static_cast<uint8_t*>(iov[at].iov_base) + n;
      iov[at].iov_len -= n;
    }
  }
};

// A non-blocking socket call that failed only for "not now".
bool WouldBlock(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

}  // namespace

Result<KernelChannelSender> KernelChannelSender::Connect(
    const std::string& socket_path) {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, osal::UnixConnect(socket_path));
  return KernelChannelSender(std::move(conn));
}

Status KernelChannelSender::Send(Shim& source, const MemoryRegion& region,
                                 CopyMode mode) {
  timing_ = {};
  if (mode == CopyMode::kDirectGuest) {
    // Bounds-checked view of the source function's memory; the kernel copies
    // from these pages into its socket buffer — the only copy on this side.
    RR_ASSIGN_OR_RETURN(const ByteSpan view, source.OutputView(region));
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, view));
    timing_.transfer = transfer_timer.Elapsed();
  } else {
    // Paper path: the shim reads the data out of the Wasm VM first
    // (read_memory_host), paying the Wasm VM I/O copy.
    Bytes staged(region.length);
    const Stopwatch io_timer;
    RR_RETURN_IF_ERROR(source.sandbox().ReadMemoryHost(region.address, staged));
    timing_.wasm_io = io_timer.Elapsed();
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, staged));
    timing_.transfer = transfer_timer.Elapsed();
  }
  bytes_sent_ += region.length;
  KernelBytesSent().Inc(region.length);
  return Status::Ok();
}

Status KernelChannelSender::SendBytes(ByteSpan data) {
  return SendBytes(rr::BufferView(data));
}

Status KernelChannelSender::SendBytes(const rr::BufferView& payload) {
  timing_ = {};
  const Stopwatch transfer_timer;
  RR_RETURN_IF_ERROR(serde::WriteFrame(conn_, payload));
  timing_.transfer = transfer_timer.Elapsed();
  bytes_sent_ += payload.size();
  KernelBytesSent().Inc(payload.size());
  return Status::Ok();
}

Result<MemoryRegion> KernelChannelReceiver::ReceiveInto(Shim& target,
                                                        CopyMode mode,
                                                        const RegionPlacer* place) {
  timing_ = {};
  const auto place_region = [&](uint64_t length) -> Result<MemoryRegion> {
    if (length > UINT32_MAX) {
      return InvalidArgumentError("frame exceeds 32-bit guest memory");
    }
    if (place != nullptr) return (*place)(static_cast<uint32_t>(length));
    return target.PrepareInput(static_cast<uint32_t>(length));
  };
  MemoryRegion delivered;
  // Reclaims a freshly placed region on any failure between placement and
  // hand-off (a frame read dying mid-body, a rejected guest write) — the
  // target instance outlives the failed transfer, so the region must not
  // stay allocated. Placer-provided regions (fan-in slices) belong to the
  // caller and are never released here.
  RegionGuard guard;
  if (mode == CopyMode::kDirectGuest) {
    const Stopwatch transfer_timer;
    Nanos alloc_time{0};
    RR_RETURN_IF_ERROR(serde::ReadFrameInto(
        conn_, [&](uint64_t length) -> Result<MutableByteSpan> {
          const Stopwatch alloc_timer;
          RR_ASSIGN_OR_RETURN(delivered, place_region(length));
          if (place == nullptr) guard = RegionGuard(&target, delivered);
          auto span = target.InputSpan(delivered);
          alloc_time = alloc_timer.Elapsed();
          return span;
        }));
    timing_.wasm_io = alloc_time;
    timing_.transfer = transfer_timer.Elapsed() - alloc_time;
  } else {
    // Paper path: kernel buffer -> shim buffer (transfer), then
    // allocate_memory + write_memory_host into the VM (Wasm VM I/O).
    const Stopwatch transfer_timer;
    RR_ASSIGN_OR_RETURN(const Bytes staged, serde::ReadFrame(conn_));
    timing_.transfer = transfer_timer.Elapsed();
    const Stopwatch io_timer;
    RR_ASSIGN_OR_RETURN(delivered, place_region(staged.size()));
    if (place == nullptr) guard = RegionGuard(&target, delivered);
    RR_RETURN_IF_ERROR(target.data().write_memory_host(staged, delivered.address));
    timing_.wasm_io = io_timer.Elapsed();
  }
  bytes_received_ += delivered.length;
  KernelBytesReceived().Inc(delivered.length);
  guard.Dismiss();
  return delivered;
}

Result<InvokeOutcome> KernelChannelReceiver::ReceiveAndInvoke(Shim& target,
                                                              CopyMode mode) {
  RR_ASSIGN_OR_RETURN(const MemoryRegion region, ReceiveInto(target, mode));
  RegionGuard guard(&target, region);
  auto outcome = target.InvokeOnRegion(region);
  // A successful invoke consumes the input; a failed one leaves it placed —
  // the guard reclaims it so the instance's heap stays bounded.
  if (outcome.ok()) guard.Dismiss();
  return outcome;
}

Result<KernelChannelListener> KernelChannelListener::Bind(
    const std::string& socket_path) {
  RR_ASSIGN_OR_RETURN(osal::UnixListener listener,
                      osal::UnixListener::Bind(socket_path));
  return KernelChannelListener(std::move(listener));
}

Result<KernelChannelReceiver> KernelChannelListener::Accept() {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, listener_.Accept());
  return KernelChannelReceiver::FromConnection(std::move(conn));
}

Result<std::pair<KernelChannelSender, KernelChannelReceiver>>
MakeKernelChannelPair() {
  RR_ASSIGN_OR_RETURN(auto pair, osal::ConnectedPair());
  return std::make_pair(KernelChannelSender::FromConnection(std::move(pair.first)),
                        KernelChannelReceiver::FromConnection(std::move(pair.second)));
}

FramePump::Counters KernelPumpCounters() {
  return {&KernelBytesSent(), &KernelBytesReceived()};
}

Result<FramePump> FramePump::Create(osal::Connection send_end,
                                    osal::Connection recv_end,
                                    Counters counters) {
  RR_RETURN_IF_ERROR(osal::SetNonBlocking(send_end.fd(), true));
  RR_RETURN_IF_ERROR(osal::SetNonBlocking(recv_end.fd(), true));
  return FramePump(std::move(send_end), std::move(recv_end), counters);
}

Status FramePump::Transfer(const rr::BufferView& source, MutableByteSpan dest,
                           Nanos idle_bound) {
  const Status moved = MoveFrame(source, dest, idle_bound);
  if (!moved.ok()) {
    if (moved.code() == StatusCode::kDeadlineExceeded) {
      Count(counters_.deadline_expiries);
    }
    Count(counters_.kills);
    return moved;
  }
  Count(counters_.bytes_sent, source.size());
  Count(counters_.bytes_received, dest.size());
  Count(counters_.frames_sent);
  return Status::Ok();
}

Status FramePump::MoveFrame(const rr::BufferView& source, MutableByteSpan dest,
                            Nanos idle_bound) {
  if (source.size() > serde::kMaxFrameBytes) {
    return InvalidArgumentError("frame exceeds maximum size");
  }
  if (dest.size() != source.size()) {
    return InternalError("placement returned wrong-size destination");
  }
  // Send side: the frame header, then every source segment, gathered.
  // Receive side: the header as the peer reads it, then the body, scattered
  // straight into the destination.
  uint8_t out_header[8];
  StoreLE<uint64_t>(out_header, source.size());
  IoCursor out;
  out.Add(out_header, sizeof(out_header));
  for (size_t i = 0; i < source.segment_count(); ++i) {
    const ByteSpan segment = source.segment(i);
    out.Add(const_cast<uint8_t*>(segment.data()), segment.size());
  }
  uint8_t in_header[8];
  IoCursor in;
  in.Add(in_header, sizeof(in_header));
  in.Add(dest.data(), dest.size());
  bool header_checked = false;

  const int poll_ms =
      idle_bound <= Nanos{0}
          ? -1
          : static_cast<int>(std::min<int64_t>(
                std::chrono::ceil<std::chrono::milliseconds>(idle_bound).count(),
                INT32_MAX));
  while (!out.done() || !in.done()) {
    bool progressed = false;
    if (!out.done()) {
      msghdr msg = out.Message();
      const ssize_t n =
          ::sendmsg(send_end_.fd(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out.Advance(static_cast<size_t>(n));
        progressed = true;
      } else if (n < 0 && !WouldBlock(errno)) {
        return ErrnoToStatus(errno, "frame pump sendmsg");
      }
    }
    if (!in.done()) {
      msghdr msg = in.Message();
      const ssize_t n = ::recvmsg(recv_end_.fd(), &msg, MSG_DONTWAIT);
      if (n > 0) {
        in.Advance(static_cast<size_t>(n));
        progressed = true;
      } else if (n == 0) {
        return DataLossError("frame pump: stream closed mid-frame");
      } else if (!WouldBlock(errno)) {
        return ErrnoToStatus(errno, "frame pump recvmsg");
      }
      if (!header_checked && in.at > 0) {
        header_checked = true;
        const uint64_t length = LoadLE<uint64_t>(in_header);
        if (length > serde::kMaxFrameBytes) {
          return DataLossError("frame header announces implausible size");
        }
        if (length != dest.size()) {
          return DataLossError("frame header announces " +
                               std::to_string(length) + " bytes for a " +
                               std::to_string(dest.size()) +
                               "-byte destination");
        }
      }
    }
    if (progressed) continue;
    // Neither end moved: wait for the send end to drain or the receive end
    // to fill. POLLERR/POLLHUP wake the wait; the next syscall names them.
    pollfd fds[2];
    nfds_t count = 0;
    if (!out.done()) fds[count++] = {send_end_.fd(), POLLOUT, 0};
    fds[count++] = {recv_end_.fd(), POLLIN, 0};
    const int ready = ::poll(fds, count, poll_ms);
    if (ready == 0) {
      return DeadlineExceededError("frame pump made no progress for " +
                                   std::to_string(poll_ms) + " ms");
    }
    if (ready < 0 && errno != EINTR) {
      return ErrnoToStatus(errno, "frame pump poll");
    }
  }
  return Status::Ok();
}

void FramePump::Shutdown() {
  send_end_.ShutdownBoth();
  recv_end_.ShutdownBoth();
}

}  // namespace rr::core
