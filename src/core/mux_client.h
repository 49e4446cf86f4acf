// MuxClient: the sender-side counterpart of the agent's multiplexed wire
// (mux_protocol.h).
//
// One client owns one TCP connection to one remote NodeAgent and carries
// every concurrent transfer to that agent as an interleaved stream:
//
//  * StartStream opens a stream and returns immediately; the payload drains
//    through the shared reactor's event loop as chunk frames, fair
//    round-robin across all active streams — one quantum (kMuxMaxChunk) per
//    turn, so a 64 MiB transfer cannot head-of-line-block a 4 KiB one.
//  * A stream that exhausts its flow-control window leaves the send ring
//    (counted in rr_agent_stream_stalls_total) until the agent's next
//    window-update frame; the other streams keep the wire busy.
//  * The agent's completion frame carries the remote *invocation* outcome;
//    `done` fires with it as soon as the frame arrives — a remote handler
//    failure fails the caller immediately, not at some delivery deadline.
//  * While a stream's body is still draining, it must make progress (bytes
//    sent, window granted, or completed) within the transfer deadline passed
//    to StartStream, or it is cancelled with kDeadlineExceeded. Once the
//    body is fully sent the invocation may run as long as the caller's own
//    backstop allows — the client imposes no completion deadline.
//  * A dead connection fails every in-flight stream with kUnavailable and
//    the next StartStream reconnects inline (this is also how an agent-side
//    idle sweep is absorbed transparently).
//
// Thread contract: StartStream/Close are callable from any thread. `done`
// callbacks fire on the reactor thread (completions, connection death) or on
// the caller's thread (failures during StartStream's own pump) — never with
// the client's lock held, and exactly once per OK StartStream.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/mux_protocol.h"
#include "obs/trace.h"
#include "osal/fd.h"
#include "osal/reactor.h"
#include "osal/socket.h"

namespace rr::core {

class MuxClient : public std::enable_shared_from_this<MuxClient> {
 public:
  // Receives the stream's final status: the remote invocation outcome, or a
  // transport/deadline failure.
  using DoneFn = std::function<void(Status)>;

  // The connection is opened lazily by the first StartStream.
  static std::shared_ptr<MuxClient> Create(
      std::shared_ptr<osal::Reactor> reactor, std::string host, uint16_t port);

  ~MuxClient();

  MuxClient(const MuxClient&) = delete;
  MuxClient& operator=(const MuxClient&) = delete;

  // Opens a stream carrying `payload` to `function` on the remote agent.
  // Returns non-OK only when the stream could not be initiated — `done` then
  // never fires. On OK, `done` fires exactly once (possibly before this call
  // returns). The caller's trace context is captured here and travels in the
  // open frame. `transfer_deadline` bounds body-drain *progress*, not the
  // remote invocation; non-positive = unbounded.
  Status StartStream(const std::string& function, rr::Buffer payload,
                     uint64_t token, Nanos transfer_deadline, DoneFn done);

  // Fails every in-flight stream with kUnavailable and closes the
  // connection. Idempotent; further StartStream calls are refused.
  void Close();

  bool connected() const;
  size_t streams_in_flight() const;

 private:
  struct Stream {
    rr::Buffer payload;
    size_t offset = 0;          // payload bytes fully handed to the kernel
    size_t window = kMuxInitialWindow;
    bool stalled = false;       // out of the ring, waiting on a window update
    Nanos progress_budget{0};   // non-positive = unbounded
    TimePoint last_progress;
    DoneFn done;
  };

  // One wire frame mid-write: a self-contained span list, so the stream it
  // came from may complete or be cancelled without corrupting the wire.
  struct OutFrame {
    bool active = false;
    uint8_t header[kMuxFrameHeaderBytes];
    Bytes control;          // control frames own their bytes here
    rr::Buffer body_ref;    // keeps a data frame's chunk storage alive
    std::vector<ByteSpan> parts;
    size_t part = 0;
    size_t part_offset = 0;
  };

  // A done callback captured under the lock, fired after it is released.
  using Fired = std::pair<DoneFn, Status>;

  MuxClient(std::shared_ptr<osal::Reactor> reactor, std::string host,
            uint16_t port)
      : reactor_(std::move(reactor)), host_(std::move(host)), port_(port) {}

  // Split connect: Dial runs the blocking TcpConnect + preamble WITHOUT the
  // lock (it touches only immutable members), InstallLocked registers the
  // socket with the reactor and flips connected_ under it.
  Result<osal::Connection> Dial();
  Status InstallLocked(osal::Connection conn) RR_REQUIRES(mutex_);
  void OnEvent(uint64_t gen, uint32_t events);
  void SweepDeadlines();
  bool ReadLocked(std::vector<Fired>* fired) RR_REQUIRES(mutex_);
  bool HandleFrameLocked(std::vector<Fired>* fired) RR_REQUIRES(mutex_);
  // false = the connection died mid-write.
  bool PumpLocked() RR_REQUIRES(mutex_);
  bool StageNextLocked() RR_REQUIRES(mutex_);
  void SetWritableLocked(bool writable) RR_REQUIRES(mutex_);
  void ConnDeadLocked(std::vector<Fired>* fired, const Status& reason)
      RR_REQUIRES(mutex_);
  static void Fire(std::vector<Fired>& fired);

  // WEAK on purpose: the reactor's ticker and event handler hold the client
  // through weak_ptr::lock() temporaries, so during teardown the LOOP thread
  // can briefly own the last MuxClient reference. If the client also owned
  // the reactor, that drop would run ~Reactor on the reactor's own loop
  // thread — Stop() would join itself. The client's owner keeps the strong
  // reactor reference and tears down off-loop (Close(), then the client,
  // then the reactor); a failed lock() here means teardown is underway and
  // the operation degrades to "connection dead".
  const std::weak_ptr<osal::Reactor> reactor_;
  const std::string host_;
  const uint16_t port_;

  mutable Mutex mutex_;
  bool closed_ RR_GUARDED_BY(mutex_) = false;
  bool connected_ RR_GUARDED_BY(mutex_) = false;
  bool writable_armed_ RR_GUARDED_BY(mutex_) = false;
  uint64_t conn_gen_ RR_GUARDED_BY(mutex_) = 0;
  osal::UniqueFd fd_ RR_GUARDED_BY(mutex_);
  uint64_t ticker_id_ RR_GUARDED_BY(mutex_) = 0;

  uint32_t next_stream_id_ RR_GUARDED_BY(mutex_) = 1;
  std::unordered_map<uint32_t, Stream> streams_ RR_GUARDED_BY(mutex_);
  // Streams with sendable bytes + window.
  std::deque<uint32_t> ring_ RR_GUARDED_BY(mutex_);
  // Opens and cancels, sent first.
  std::deque<Bytes> control_ RR_GUARDED_BY(mutex_);
  OutFrame out_ RR_GUARDED_BY(mutex_);

  // Receive state: a frame header, then (completions only) its detail.
  uint8_t racc_[kMuxFrameHeaderBytes + kMuxMaxCompletionDetail]
      RR_GUARDED_BY(mutex_);
  size_t rneed_ RR_GUARDED_BY(mutex_) = kMuxFrameHeaderBytes;
  size_t rgot_ RR_GUARDED_BY(mutex_) = 0;
  // Header parsed, detail accumulating.
  bool rheader_pending_ RR_GUARDED_BY(mutex_) = false;
  MuxFrameHeader rh_ RR_GUARDED_BY(mutex_);
};

}  // namespace rr::core
