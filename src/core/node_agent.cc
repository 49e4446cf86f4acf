#include "core/node_agent.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/log.h"
#include "core/mux_protocol.h"
#include "core/region_guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "osal/reactor.h"
#include "resilience/fault_injector.h"

namespace rr::core {
namespace {

obs::Counter& AgentAcceptRetries() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_accept_retries_total",
      "Transient accept errors the agent backed off and retried");
  return *counter;
}

obs::Counter& AgentTransfersRefused() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_transfers_refused_total",
      "Streams refused with a typed error completion (admission caps, pool "
      "exhausted)");
  return *counter;
}

obs::Counter& AgentTransfersCompleted() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_transfers_completed_total",
      "Frames delivered and invoked to completion");
  return *counter;
}

obs::Gauge& AgentConnections() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_agent_connections", "Connections the node agent currently serves");
  return *gauge;
}

obs::Gauge& AgentStreamsInFlight() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_agent_streams_in_flight",
      "Mux streams currently staging or awaiting their completion frame");
  return *gauge;
}

obs::Counter& AgentCompletionFrames() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_completion_frames_total",
      "Completion frames sent to senders (any outcome)");
  return *counter;
}

obs::Counter& AgentCompletionErrors() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_completion_errors_total",
      "Completion frames that carried a non-OK invocation outcome");
  return *counter;
}

// Eager registration: agent series appear in scrapes at zero, before any
// connection, stream, or refusal has happened.
const bool g_agent_metrics_registered = [] {
  AgentAcceptRetries();
  AgentTransfersRefused();
  AgentTransfersCompleted();
  AgentConnections();
  AgentStreamsInFlight();
  AgentCompletionFrames();
  AgentCompletionErrors();
  return true;
}();

// Longest function name an open frame may carry. Kept tiny — routing
// metadata, never payload.
constexpr size_t kMaxFunctionName = 256;

// Per-connection cap on COMMITTED bytes: body bytes the agent has agreed to
// hold — granted-but-unreceived window credit plus bytes already staged or
// handed to the invoke pool. Opens that would commit past the cap are
// refused with a typed completion, grants that would are deferred until
// invokes drain, and data beyond a stream's granted window is
// connection-fatal — so the cap is a hard heap bound (within the staging
// buffers' 2x growth factor), not advisory. A single stream larger than the
// cap could never finish staging, so it is refused at open.
// Default for Options::max_conn_staged_bytes == 0.
constexpr size_t kMaxConnStagedBytes = 128 * 1024 * 1024;

// Concurrent staging streams one connection may hold. Bounds the stream
// table (an open frame is ~40 bytes; table entries must not be free to mint)
// while leaving room for the 10k-in-flight scale target over a handful of
// connections. Opens past it are refused with a typed completion.
// Default for Options::max_conn_streams == 0.
constexpr size_t kMaxConnStreams = 4096;

// Cap on outbound control bytes (completions, window updates) queued
// for a peer that has stopped reading. Control frames are tiny (a completion
// is at most 528 bytes), so a backlog this deep means the peer is gone:
// exceeding it is connection-fatal.
constexpr size_t kMaxConnOutboundBytes = 4 * 1024 * 1024;

// A mux completion frame: the invocation outcome, not just delivery.
Bytes EncodeCompletion(uint32_t stream_id, const Status& status) {
  std::string detail(status.message());
  if (detail.size() > kMuxMaxCompletionDetail) {
    detail.resize(kMuxMaxCompletionDetail);
  }
  MuxFrameHeader h;
  h.type = kMuxFrameCompletion;
  h.stream_id = stream_id;
  h.payload_length = static_cast<uint32_t>(detail.size());
  h.aux = static_cast<uint32_t>(status.code());
  Bytes out(kMuxFrameHeaderBytes + detail.size());
  EncodeMuxFrameHeader(h, out.data());
  std::memcpy(out.data() + kMuxFrameHeaderBytes, detail.data(), detail.size());
  return out;
}

Bytes EncodeWindowUpdate(uint32_t stream_id, uint32_t credit) {
  MuxFrameHeader h;
  h.type = kMuxFrameWindowUpdate;
  h.stream_id = stream_id;
  h.aux = credit;
  Bytes out(kMuxFrameHeaderBytes);
  EncodeMuxFrameHeader(h, out.data());
  return out;
}

}  // namespace

bool IsTransientAcceptError(const Status& status) {
  // The retryable class IS the transient-accept class: kResourceExhausted
  // (EMFILE/ENFILE/ENOMEM — the node is out of fds or memory *right now*;
  // connections already being served will finish and free them),
  // kUnavailable (ECONNABORTED/EPROTO/EAGAIN — the failure belongs to one
  // aborted peer, not the listener), kDeadlineExceeded (a peer that stalled
  // its own handshake).
  return status.IsRetryable();
}

// ---------------------------------------------------------------------------
// The reactor plane: shards of epoll loops own the wire, a fixed worker pool
// owns the invokes. Connections and streams are table entries, not threads.
// ---------------------------------------------------------------------------
struct NodeAgent::ReactorPlane {
  explicit ReactorPlane(NodeAgent* agent)
      : agent(agent),
        max_conn_streams(agent->options_.max_conn_streams
                             ? agent->options_.max_conn_streams
                             : kMaxConnStreams),
        max_conn_staged_bytes(agent->options_.max_conn_staged_bytes
                                  ? agent->options_.max_conn_staged_bytes
                                  : kMaxConnStagedBytes) {}

  // The half of a connection that invoke workers (and the loop) write to.
  // Outlives the Conn via shared_ptr: a worker finishing after teardown sees
  // `dead` and fails its send instead of racing a recycled descriptor.
  //
  // Sends NEVER block: a frame is appended to a bounded outbound queue and
  // the queue is drained as far as the socket allows (MSG_DONTWAIT); a
  // backlog arms kWritable on the owning shard's reactor, whose loop drains
  // the rest as the peer reads. One peer with a full socket buffer therefore
  // costs queue bytes, never a parked loop thread or invoke worker.
  struct WriteHandle {
    Mutex mutex;
    osal::UniqueFd fd RR_GUARDED_BY(mutex);
    bool dead RR_GUARDED_BY(mutex) = false;
    std::shared_ptr<osal::Reactor> reactor;  // the owning shard's loop
    std::deque<Bytes> outq RR_GUARDED_BY(mutex);
    // Bytes of outq.front() already on the wire.
    size_t front_sent RR_GUARDED_BY(mutex) = 0;
    size_t outq_bytes RR_GUARDED_BY(mutex) = 0;
    bool writable_armed RR_GUARDED_BY(mutex) = false;

    // Queues `frame` and drains. Callable from any thread (Reactor::Modify
    // is thread-safe). Returns false when the connection is dead, the
    // outbound backlog exceeded its cap, or the socket failed — all
    // connection-fatal for the caller.
    bool SendFrame(Bytes frame) {
      MutexLock lock(mutex);
      if (dead || !fd.valid()) return false;
      if (outq_bytes + frame.size() > kMaxConnOutboundBytes) return false;
      outq_bytes += frame.size();
      outq.push_back(std::move(frame));
      return DrainLocked();
    }

    // Sends queue frames until empty or EAGAIN; arms/disarms kWritable to
    // match the backlog. Returns false on a hard socket error.
    bool DrainLocked() RR_REQUIRES(mutex) {
      while (!outq.empty()) {
        const Bytes& front = outq.front();
        const ssize_t n =
            ::send(fd.get(), front.data() + front_sent,
                   front.size() - front_sent, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            ArmLocked(true);
            return true;
          }
          return false;
        }
        front_sent += static_cast<size_t>(n);
        if (front_sent == front.size()) {
          outq_bytes -= front.size();
          outq.pop_front();
          front_sent = 0;
        }
      }
      ArmLocked(false);
      return true;
    }

    // Re-arms interest. A Modify failure is ignored: it only happens when
    // the loop already removed the fd (teardown underway), and the queued
    // frames die with the connection anyway.
    void ArmLocked(bool writable) {
      if (writable_armed == writable || reactor == nullptr) return;
      writable_armed = writable;
      (void)reactor->Modify(fd.get(),
                            osal::Epoll::kReadable |
                                (writable ? osal::Epoll::kWritable : 0u));
    }
  };

  // One staged frame handed to the invoke pool.
  struct InvokeJob {
    Entry entry;
    std::string function;
    Bytes body;
    obs::SpanContext trace;
    std::shared_ptr<WriteHandle> write;
    uint32_t stream_id = 0;
    uint64_t token = 0;
    size_t shard = 0;
    uint64_t conn_id = 0;
    // Bytes this job holds against the connection's commitment cap.
    size_t staged = 0;
  };

  // One logical transfer on a mux connection, while its body is staging.
  // `body` grows geometrically as flow-controlled data arrives (never past
  // body_len, never more than ~2x the bytes received) — the declared length
  // is a promise, not an allocation, so a peer declaring huge bodies it
  // never sends costs the agent nothing.
  struct Stream {
    uint64_t token = 0;
    Entry entry;
    std::string function;
    uint64_t body_len = 0;
    Bytes body;
    uint64_t got = 0;
    // Total window bytes extended to the sender (initial + grants). Data
    // past it is a flow-control violation and connection-fatal, which is
    // what makes the commitment cap a hard bound.
    uint64_t credit = 0;
    // Body bytes consumed since the last window grant.
    size_t ungranted = 0;
    bool credit_deferred = false;
    obs::SpanContext trace;
    TimePoint last_data;

    // This stream's share of the connection's committed bytes: the sender
    // may deliver up to its granted credit, but never past the declared end.
    uint64_t committed() const { return std::min(body_len, credit); }
  };

  struct Conn {
    uint64_t id = 0;
    size_t shard = 0;
    int fd = -1;  // borrowed from `write` for reactor (de)registration
    std::shared_ptr<WriteHandle> write;
    TimePoint last_activity;

    // The receive state machine. Fixed-size pieces (the preamble, frame
    // headers, the open payload) accumulate into `acc`; stream bodies stream
    // straight into their staging buffers.
    enum class Phase {
      kPreamble,
      kMuxIntro,
      kMuxHeader,
      kMuxOpen,
      kMuxData,
      kMuxSkip,
    };
    Phase phase = Phase::kPreamble;
    uint8_t acc[kMuxMaxOpenPayload];
    size_t fixed_need = 2;
    size_t fixed_got = 0;

    MuxFrameHeader mh;
    size_t frame_left = 0;
    size_t skip_left = 0;
    std::unordered_map<uint32_t, Stream> streams;
    // Streams whose window grant was withheld by the commitment cap, in
    // arrival order; re-granted as invokes drain.
    std::deque<uint32_t> deferred_credit;
    size_t jobs_inflight = 0;
    // Sum of every staging stream's committed() plus every in-flight job's
    // staged bytes; admission and grants keep it under kMaxConnStagedBytes.
    size_t committed_bytes = 0;
  };

  struct Shard {
    std::shared_ptr<osal::Reactor> reactor;
    // Loop-thread-only: every access happens on this shard's reactor.
    std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns;
  };

  NodeAgent* const agent;
  // Options-resolved admission caps (0 in Options picks the build default).
  const size_t max_conn_streams;
  const size_t max_conn_staged_bytes;
  std::vector<Shard> shards;
  std::atomic<uint64_t> next_conn_id{1};
  std::atomic<size_t> rr_next{0};
  bool shut_down = false;

  // The invoke pool: the only threads that run Wasm.
  std::vector<std::thread> workers;
  Mutex queue_mutex;
  CondVar queue_cv;
  std::deque<InvokeJob> queue RR_GUARDED_BY(queue_mutex);
  bool queue_stopping RR_GUARDED_BY(queue_mutex) = false;

  Nanos SweepTick() const {
    Nanos tick = std::chrono::milliseconds(500);
    if (agent->options_.idle_timeout > Nanos{0}) {
      tick = std::min(tick, agent->options_.idle_timeout / 2);
    }
    if (agent->options_.transfer_deadline > Nanos{0}) {
      tick = std::min(tick, agent->options_.transfer_deadline / 2);
    }
    return std::max<Nanos>(tick, std::chrono::milliseconds(10));
  }

  Status Start() {
    RR_RETURN_IF_ERROR(osal::SetNonBlocking(agent->listener_.fd(), true));
    const size_t hw =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    size_t nshards = agent->options_.shards;
    if (nshards == 0) nshards = std::min<size_t>(4, std::max<size_t>(1, hw / 4));
    size_t nworkers = agent->options_.invoke_workers;
    if (nworkers == 0) {
      nworkers = std::max<size_t>(2, std::min<size_t>(8, hw / 2));
    }
    shards.resize(nshards);
    for (size_t i = 0; i < nshards; ++i) {
      RR_ASSIGN_OR_RETURN(
          shards[i].reactor,
          osal::Reactor::Start("agent-shard-" + std::to_string(i)));
    }
    RR_RETURN_IF_ERROR(
        shards[0].reactor->Add(agent->listener_.fd(), osal::Epoll::kReadable,
                               [this](uint32_t) { AcceptReady(); }));
    const Nanos tick = SweepTick();
    for (size_t i = 0; i < nshards; ++i) {
      shards[i].reactor->AddTicker(tick, [this, i] { Sweep(i); });
    }
    for (size_t i = 0; i < nworkers; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    return Status::Ok();
  }

  void Shutdown() {
    if (shut_down) return;
    shut_down = true;
    for (Shard& shard : shards) {
      if (shard.reactor) shard.reactor->Stop();
    }
    // Loop threads are joined: connection tables are now plane-owned.
    size_t closed = 0;
    size_t open_streams = 0;
    for (Shard& shard : shards) {
      for (auto& [id, conn] : shard.conns) {
        MutexLock lock(conn->write->mutex);
        conn->write->dead = true;
        conn->write->fd.Reset();
        open_streams += conn->streams.size();
        ++closed;
      }
      shard.conns.clear();
    }
    if (open_streams > 0) {
      AgentStreamsInFlight().Sub(static_cast<int64_t>(open_streams));
    }
    if (closed > 0) AgentConnections().Sub(static_cast<int64_t>(closed));
    agent->active_connections_.store(0, std::memory_order_relaxed);
    size_t dropped_streams = 0;
    {
      MutexLock lock(queue_mutex);
      queue_stopping = true;
      dropped_streams = queue.size();
      queue.clear();
    }
    if (dropped_streams > 0) {
      AgentStreamsInFlight().Sub(static_cast<int64_t>(dropped_streams));
    }
    queue_cv.notify_all();
    for (std::thread& worker : workers) {
      if (worker.joinable()) worker.join();
    }
    workers.clear();
  }

  // --- accept path (shard 0's loop) ---

  void AcceptReady() {  // rr-lint: reactor-thread
    while (true) {
      Result<osal::Connection> accepted = agent->listener_.TryAccept();
      if (!accepted.ok()) {
        if (agent->stopping_.load()) return;
        if (IsTransientAcceptError(accepted.status())) {
          AgentAcceptRetries().Inc();
          RR_LOG(Warning) << "node agent: transient accept error (retrying): "
                          << accepted.status();
        } else {
          RR_LOG(Warning) << "node agent: accept failed: "
                          << accepted.status();
        }
        return;
      }
      if (!accepted->valid()) return;  // drained the backlog
      accepted->SetNoDelay(true);
      auto conn = std::make_shared<Conn>();
      conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
      conn->shard = rr_next.fetch_add(1, std::memory_order_relaxed) %
                    shards.size();
      conn->write = std::make_shared<WriteHandle>();
      conn->write->fd = accepted->TakeFd();
      conn->write->reactor = shards[conn->shard].reactor;
      conn->fd = conn->write->fd.get();
      conn->last_activity = Now();
      // Hand off to the owning shard's loop; every later touch of this Conn
      // happens there.
      shards[conn->shard].reactor->Post(
          [this, conn]() mutable { Adopt(std::move(conn)); });
    }
  }

  void Adopt(std::shared_ptr<Conn> conn) {
    const size_t si = conn->shard;
    const uint64_t id = conn->id;
    const Status added = shards[si].reactor->Add(
        conn->fd, osal::Epoll::kReadable,
        [this, si, id](uint32_t events) { OnConnEvent(si, id, events); });
    if (!added.ok()) {
      MutexLock lock(conn->write->mutex);
      conn->write->dead = true;
      conn->write->fd.Reset();
      return;
    }
    shards[si].conns.emplace(id, std::move(conn));
    agent->active_connections_.fetch_add(1, std::memory_order_relaxed);
    AgentConnections().Add(1);
  }

  // --- event path (each shard's loop) ---

  void OnConnEvent(size_t si, uint64_t id, uint32_t events) {  // rr-lint: reactor-thread
    const auto it = shards[si].conns.find(id);
    if (it == shards[si].conns.end()) return;  // stale event past teardown
    std::shared_ptr<Conn> conn = it->second;
    if (events & osal::Epoll::kError) {
      Teardown(si, conn);
      return;
    }
    if (events & osal::Epoll::kWritable) {
      // The peer caught up on its socket buffer: drain the queued control
      // frames (completions, window updates) it had backed up.
      MutexLock lock(conn->write->mutex);
      const bool drained = conn->write->DrainLocked();
      lock.unlock();
      if (!drained) {
        Teardown(si, conn);
        return;
      }
    }
    if ((events & osal::Epoll::kReadable) == 0) return;
    uint8_t buf[64 * 1024];
    // Bounded drain: level-triggered epoll re-arms anything left, so capping
    // the per-event read keeps one firehose connection from starving the
    // shard's other connections.
    for (int round = 0; round < 16; ++round) {
      // Never blocks (MSG_DONTWAIT).  rr-lint: allow(reactor-blocking)
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        conn->last_activity = Now();
        if (!Feed(*conn, ByteSpan(buf, static_cast<size_t>(n)))) {
          Teardown(si, conn);
          return;
        }
        if (static_cast<size_t>(n) < sizeof(buf)) return;
        continue;
      }
      if (n == 0) {  // peer closed
        Teardown(si, conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Teardown(si, conn);
      return;
    }
  }

  void ArmFixed(Conn& c, Conn::Phase phase, size_t need) {
    c.phase = phase;
    c.fixed_need = need;
    c.fixed_got = 0;
  }

  // Consumes `data` through the state machine. Returns false on anything
  // connection-fatal (the byte stream past the fault cannot be re-framed).
  bool Feed(Conn& c, ByteSpan data) {
    while (!data.empty()) {
      switch (c.phase) {
        case Conn::Phase::kMuxData: {
          const auto it = c.streams.find(c.mh.stream_id);
          if (it == c.streams.end()) {
            // Stream swept mid-frame (stalled past the deadline): the rest
            // of the chunk is framing noise, skip it.
            c.skip_left = c.frame_left;
            c.frame_left = 0;
            c.phase = Conn::Phase::kMuxSkip;
            continue;
          }
          Stream& s = it->second;
          const size_t n = std::min<size_t>(data.size(), c.frame_left);
          if (s.body.size() < s.got + n) {
            // Geometric growth, capped at the declared length: memory tracks
            // bytes actually received (amortized one extra copy), never the
            // peer's declaration.
            const uint64_t doubled =
                std::max<uint64_t>(s.body.size() * 2, 64 * 1024);
            s.body.resize(static_cast<size_t>(std::min<uint64_t>(
                s.body_len, std::max<uint64_t>(doubled, s.got + n))));
          }
          std::memcpy(s.body.data() + s.got, data.data(), n);
          s.got += n;
          s.ungranted += n;
          s.last_data = Now();
          c.frame_left -= n;
          data = data.subspan(n);
          if (c.frame_left == 0) {
            if (!MaybeGrant(c, c.mh.stream_id, s)) return false;
            if (s.got == s.body_len) {
              CompleteStreamStaging(c, c.mh.stream_id, s);
            }
            ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
          }
          continue;
        }
        case Conn::Phase::kMuxSkip: {
          const size_t n = std::min<size_t>(data.size(), c.skip_left);
          c.skip_left -= n;
          data = data.subspan(n);
          if (c.skip_left == 0) {
            ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
          }
          continue;
        }
        default:
          break;
      }
      // Fixed-size accumulation phases.
      const size_t n = std::min<size_t>(data.size(), c.fixed_need - c.fixed_got);
      std::memcpy(c.acc + c.fixed_got, data.data(), n);
      c.fixed_got += n;
      data = data.subspan(n);
      if (c.fixed_got < c.fixed_need) return true;  // wait for more bytes
      if (!ProcessFixed(c)) return false;
    }
    return true;
  }

  bool ProcessFixed(Conn& c) {
    switch (c.phase) {
      case Conn::Phase::kPreamble: {
        // Checked on the first two bytes alone: a peer speaking anything
        // else is dropped at once, never parked waiting for bytes that
        // will not frame.
        if (LoadLE<uint16_t>(c.acc) != kMuxPreambleMagic) {
          RR_LOG(Warning) << "node agent: not a mux preamble";
          return false;
        }
        ArmFixed(c, Conn::Phase::kMuxIntro, kMuxPreambleBytes - 2);
        return true;
      }
      case Conn::Phase::kMuxIntro: {
        if (c.acc[0] != kMuxVersion) {
          RR_LOG(Warning) << "node agent: unsupported mux version "
                          << static_cast<int>(c.acc[0]);
          return false;
        }
        ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
        return true;
      }
      case Conn::Phase::kMuxHeader: {
        const MuxFrameHeader mh = DecodeMuxFrameHeader(c.acc);
        const Status valid = ValidateMuxFrameHeader(mh, /*receiver_is_agent=*/true);
        if (!valid.ok()) {
          RR_LOG(Warning) << "node agent: " << valid;
          return false;
        }
        c.mh = mh;
        switch (mh.type) {
          case kMuxFrameOpen:
            ArmFixed(c, Conn::Phase::kMuxOpen, mh.payload_length);
            return true;
          case kMuxFrameData: {
            const auto it = c.streams.find(mh.stream_id);
            if (it == c.streams.end()) {
              // Unknown stream: tolerated (a chunk racing a cancel/sweep).
              c.skip_left = mh.payload_length;
              c.phase = Conn::Phase::kMuxSkip;
              return true;
            }
            if (it->second.got + mh.payload_length > it->second.body_len) {
              RR_LOG(Warning)
                  << "node agent: mux data overruns the declared body";
              return false;
            }
            if (it->second.got + mh.payload_length > it->second.credit) {
              // Flow-control violation: the peer sent past its granted
              // window. Tolerating it would let a hostile sender ignore
              // deferred grants and balloon the heap anyway, so it is
              // connection-fatal.
              RR_LOG(Warning)
                  << "node agent: mux data exceeds the granted window";
              return false;
            }
            c.frame_left = mh.payload_length;
            c.phase = Conn::Phase::kMuxData;
            return true;
          }
          case kMuxFrameCancel: {
            DropStream(c, mh.stream_id);
            ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
            return true;
          }
          default:  // validated above; agent never receives the others
            return false;
        }
      }
      case Conn::Phase::kMuxOpen:
        return ProcessOpen(c);
      default:
        return false;
    }
  }

  bool ProcessOpen(Conn& c) {
    const uint8_t* p = c.acc;
    const size_t len = c.fixed_need;
    if (len < 18) {
      RR_LOG(Warning) << "node agent: truncated mux open frame";
      return false;
    }
    const uint64_t token = LoadLE<uint64_t>(p);
    const uint64_t body_len = LoadLE<uint64_t>(p + 8);
    const uint16_t name_len = LoadLE<uint16_t>(p + 16);
    const bool traced = (c.mh.flags & kMuxFlagTrace) != 0;
    const size_t expect = 18 + name_len + (traced ? 16 : 0);
    if (name_len == 0 || name_len > kMaxFunctionName || len != expect) {
      RR_LOG(Warning) << "node agent: malformed mux open frame";
      return false;
    }
    if (body_len > serde::kMaxFrameBytes || body_len > UINT32_MAX) {
      RR_LOG(Warning) << "node agent: implausible mux body length";
      return false;
    }
    if (c.streams.count(c.mh.stream_id) != 0) {
      RR_LOG(Warning) << "node agent: duplicate mux stream id "
                      << c.mh.stream_id;
      return false;
    }
    std::string function(reinterpret_cast<const char*>(p + 18), name_len);
    obs::SpanContext trace;
    if (traced) {
      trace.trace_id = LoadLE<uint64_t>(p + 18 + name_len);
      trace.span_id = LoadLE<uint64_t>(p + 18 + name_len + 8);
    }
    Entry entry;
    if (!ResolveEntry(function, &entry)) {
      // An unknown function is stream-fatal, not connection-fatal: the
      // sender gets a typed completion immediately.
      return RefuseStream(c, c.mh.stream_id,
                          NotFoundError("no such function: " + function));
    }
    // Admission: an open is a commitment to hold body bytes. Refuse — typed,
    // stream-fatal — anything the caps cannot honor, BEFORE any allocation:
    // a handful of ~40-byte open frames must never reserve gigabytes.
    const uint64_t commit =
        std::min<uint64_t>(body_len, kMuxInitialWindow);
    Status refusal = Status::Ok();
    if (c.streams.size() >= max_conn_streams) {
      refusal = ResourceExhaustedError(
          "connection exceeds " + std::to_string(max_conn_streams) +
          " concurrent streams");
    } else if (body_len > max_conn_staged_bytes) {
      // Larger than the whole commitment budget: the stream could never
      // finish staging — fail it now instead of stalling it to a deadline.
      refusal = ResourceExhaustedError(
          "declared body exceeds the agent's staging capacity");
    } else if (c.committed_bytes + commit > max_conn_staged_bytes) {
      refusal = ResourceExhaustedError(
          "agent staging capacity exhausted; retry after in-flight "
          "transfers drain");
    }
    if (!refusal.ok()) {
      agent->transfers_refused_.fetch_add(1, std::memory_order_relaxed);
      AgentTransfersRefused().Inc();
      return RefuseStream(c, c.mh.stream_id, refusal);
    }
    Stream s;
    s.token = token;
    s.entry = std::move(entry);
    s.function = std::move(function);
    s.body_len = body_len;
    s.credit = kMuxInitialWindow;  // what the sender starts with (protocol)
    s.trace = trace;
    s.last_data = Now();
    c.committed_bytes += commit;
    AgentStreamsInFlight().Add(1);
    const auto [it, inserted] = c.streams.emplace(c.mh.stream_id, std::move(s));
    (void)inserted;
    if (body_len == 0) CompleteStreamStaging(c, c.mh.stream_id, it->second);
    ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
    return true;
  }

  // Stream-fatal typed refusal: the sender's edge fails immediately with
  // `reason` while the connection — and every other stream on it — lives
  // on. False when even the completion could not be queued (dead wire).
  bool RefuseStream(Conn& c, uint32_t stream_id, const Status& reason) {
    AgentCompletionFrames().Inc();
    AgentCompletionErrors().Inc();
    if (!c.write->SendFrame(EncodeCompletion(stream_id, reason))) return false;
    ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
    return true;
  }

  bool ResolveEntry(const std::string& name, Entry* out) {
    MutexLock lock(agent->mutex_);
    const auto it = agent->functions_.find(name);
    if (it == agent->functions_.end()) return false;
    *out = it->second;
    return true;
  }

  // Additional bytes a grant of the stream's ungranted credit would commit
  // the connection to hold (zero once the remaining grants only cover bytes
  // the declared end already bounds — finishing streams always drain).
  static uint64_t GrantDelta(const Stream& s) {
    return std::min(s.body_len, s.credit + s.ungranted) - s.committed();
  }

  // Re-grants consumed window once enough accumulated, unless the
  // commitment cap says the peer should back up on the wire for now.
  bool MaybeGrant(Conn& c, uint32_t stream_id, Stream& s) {
    if (s.got >= s.body_len) return true;  // fully received: no more credit
    if (s.ungranted < kMuxWindowUpdateThreshold) return true;
    if (c.committed_bytes + GrantDelta(s) > max_conn_staged_bytes) {
      if (!s.credit_deferred) {
        s.credit_deferred = true;
        c.deferred_credit.push_back(stream_id);
      }
      return true;
    }
    if (resilience::FaultInjector::Instance().ShouldFire(
            resilience::FaultSite::kAgentStarveGrant)) {
      // Withhold a DUE window update: the sender stalls on credit until its
      // progress deadline types the edge kDeadlineExceeded.
      return true;
    }
    return GrantNow(c, stream_id, s);
  }

  bool GrantNow(Conn& c, uint32_t stream_id, Stream& s) {
    const uint32_t grant = static_cast<uint32_t>(s.ungranted);
    c.committed_bytes += GrantDelta(s);
    s.credit += grant;
    s.ungranted = 0;
    s.credit_deferred = false;
    return c.write->SendFrame(EncodeWindowUpdate(stream_id, grant));
  }

  bool FlushDeferredCredit(Conn& c) {
    while (!c.deferred_credit.empty()) {
      const uint32_t stream_id = c.deferred_credit.front();
      const auto it = c.streams.find(stream_id);
      if (it == c.streams.end() || !it->second.credit_deferred) {
        c.deferred_credit.pop_front();  // completed or swept meanwhile
        continue;
      }
      if (c.committed_bytes + GrantDelta(it->second) > max_conn_staged_bytes) {
        return true;  // still full; re-checked as more invokes drain
      }
      c.deferred_credit.pop_front();
      if (!GrantNow(c, stream_id, it->second)) return false;
    }
    return true;
  }

  // The stream's body is fully staged: hand it to the invoke pool. The
  // stream leaves the table (its identity lives on in the job), but stays
  // counted in-flight until its completion frame goes out, and its body
  // bytes stay committed (job.staged) until the invoke drains them.
  void CompleteStreamStaging(Conn& c, uint32_t stream_id, Stream& s) {
    InvokeJob job;
    job.entry = std::move(s.entry);
    job.function = std::move(s.function);
    job.body = std::move(s.body);
    job.trace = s.trace;
    job.write = c.write;
    job.stream_id = stream_id;
    job.token = s.token;
    job.shard = c.shard;
    job.conn_id = c.id;
    job.staged = s.body_len;
    c.streams.erase(stream_id);
    ++c.jobs_inflight;
    Enqueue(std::move(job));
  }

  void DropStream(Conn& c, uint32_t stream_id) {
    const auto it = c.streams.find(stream_id);
    if (it == c.streams.end()) return;  // tolerated: cancel racing completion
    c.committed_bytes -= it->second.committed();
    AgentStreamsInFlight().Sub(1);
    c.streams.erase(it);
  }

  void Teardown(size_t si, const std::shared_ptr<Conn>& conn) {
    (void)shards[si].reactor->Remove(conn->fd);
    {
      MutexLock lock(conn->write->mutex);
      conn->write->dead = true;
      conn->write->fd.Reset();
    }
    if (!conn->streams.empty()) {
      AgentStreamsInFlight().Sub(static_cast<int64_t>(conn->streams.size()));
      conn->streams.clear();
    }
    shards[si].conns.erase(conn->id);
    agent->active_connections_.fetch_sub(1, std::memory_order_relaxed);
    AgentConnections().Sub(1);
  }

  // Periodic per-shard sweep: wedged mid-frame connections, stalled streams,
  // and idle connections (senders reconnect transparently).
  void Sweep(size_t si) {  // rr-lint: reactor-thread
    const TimePoint now = Now();
    const Nanos deadline = agent->options_.transfer_deadline;
    const Nanos idle = agent->options_.idle_timeout;
    std::vector<std::shared_ptr<Conn>> doomed;
    for (auto& [id, conn] : shards[si].conns) {
      Conn& c = *conn;
      const bool at_frame_boundary =
          (c.phase == Conn::Phase::kPreamble ||
           c.phase == Conn::Phase::kMuxHeader) &&
          c.fixed_got == 0;
      if (deadline > Nanos{0} && !at_frame_boundary &&
          now - c.last_activity > deadline) {
        doomed.push_back(conn);
        continue;
      }
      if (deadline > Nanos{0}) {
        std::vector<uint32_t> stale;
        for (const auto& [stream_id, s] : c.streams) {
          if (s.got < s.body_len && now - s.last_data > deadline) {
            stale.push_back(stream_id);
          }
        }
        bool wire_dead = false;
        for (const uint32_t stream_id : stale) {
          AgentCompletionFrames().Inc();
          AgentCompletionErrors().Inc();
          if (!c.write->SendFrame(EncodeCompletion(
                  stream_id,
                  DeadlineExceededError(
                      "stream stalled past the transfer deadline")))) {
            // The completion could not even be queued (dead wire or a peer
            // buried past the outbound cap): connection-fatal, matching
            // GrantNow and ProcessOpen — anything the peer reads after a
            // dropped frame would be garbage.
            wire_dead = true;
            break;
          }
          DropStream(c, stream_id);
        }
        if (wire_dead) {
          doomed.push_back(conn);
          continue;
        }
      }
      const bool quiescent =
          at_frame_boundary && c.streams.empty() && c.jobs_inflight == 0;
      if (idle > Nanos{0} && quiescent && now - c.last_activity > idle) {
        doomed.push_back(conn);
      }
    }
    for (const auto& conn : doomed) {
      if (shards[si].conns.count(conn->id) != 0) Teardown(si, conn);
    }
  }

  // --- invoke pool ---

  void Enqueue(InvokeJob job) {
    {
      MutexLock lock(queue_mutex);
      if (queue_stopping) {
        AgentStreamsInFlight().Sub(1);
        return;
      }
      queue.push_back(std::move(job));
    }
    queue_cv.notify_one();
  }

  void WorkerLoop() {
    while (true) {
      InvokeJob job;
      {
        MutexLock lock(queue_mutex);
        queue_cv.wait(lock, [this]() RR_REQUIRES(queue_mutex) {
          return queue_stopping || !queue.empty();
        });
        if (queue_stopping) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      RunJob(std::move(job));
    }
  }

  void RunJob(InvokeJob job) {
    // Fault-injection hooks (resilience/fault_injector.h): one relaxed
    // atomic load each while disarmed.
    auto& faults = resilience::FaultInjector::Instance();
    if (faults.ShouldFire(resilience::FaultSite::kAgentDelayCompletion)) {
      // Hold the invoke long enough for the sender's backstop to give up;
      // the late delivery then exercises its token-rejection path.
      PreciseSleep(faults.delay(resilience::FaultSite::kAgentDelayCompletion));
    }
    if (faults.ShouldFire(resilience::FaultSite::kAgentDropCompletion)) {
      // A worker that dies right after the receive: the stream is
      // swallowed — no invoke, no completion frame, no delivery — but the
      // connection's own bookkeeping still runs, so the wire stays healthy
      // and only the sender's backstop deadline notices.
      AgentStreamsInFlight().Sub(1);
      shards[job.shard].reactor->Post(
          [this, si = job.shard, id = job.conn_id, staged = job.staged] {
            OnJobDone(si, id, staged, /*fatal=*/false);
          });
      return;
    }
    Status result = Status::Ok();
    std::optional<InvokeOutcome> outcome;
    ShimLease instance;
    auto lease = job.entry.pool->Lease();
    if (!lease.ok()) {
      // Pool exhausted: refuse with a typed error the sender can act on.
      // Count BEFORE the refusal leaves: a sender that observed the typed
      // error must also observe the count.
      agent->transfers_refused_.fetch_add(1, std::memory_order_relaxed);
      AgentTransfersRefused().Inc();
      result = ResourceExhaustedError("no instance available for " +
                                      job.function + ": " +
                                      lease.status().message());
    } else {
      instance = std::move(*lease);
      // The frame's trace context ({0,0} on untraced frames) is installed
      // for the whole land+invoke: the agent-side spans join the SENDER's
      // trace, which is what stitches a cross-process chain together.
      obs::ScopedTraceContext frame_ctx(job.trace);
      Result<InvokeOutcome> invoked = [&]() -> Result<InvokeOutcome> {
        // The exec mutex synchronizes the delivery + invoke against readers
        // of regions earlier invocations left resident in this instance.
        MutexLock shim_lock(instance->exec_mutex());
        RR_TRACE_SPAN(ingress_span, "agent", "ingress:" + job.function);
        RR_ASSIGN_OR_RETURN(
            const MemoryRegion region,
            instance->PrepareInput(static_cast<uint32_t>(job.body.size())));
        // A failed land or invoke leaves the region allocated; this
        // instance returns to the pool and lives on, so it must not leak.
        RegionGuard guard(instance.get(), region);
        RR_RETURN_IF_ERROR(instance->WriteInput(
            region, rr::BufferView(ByteSpan(job.body.data(), job.body.size()))));
        if (ingress_span) ingress_span->End();
        RR_TRACE_SPAN(invoke_span, "agent", "invoke:" + job.function);
        auto invoked_inner = instance->InvokeOnRegion(region);
        if (invoke_span) invoke_span->End();
        if (invoked_inner.ok()) guard.Dismiss();
        return invoked_inner;
      }();
      if (invoked.ok()) {
        outcome = std::move(*invoked);
      } else {
        result = invoked.status();
      }
    }

    // Report the outcome on the wire: a completion frame either way, so the
    // invocation result — success, refusal, landing or handler failure —
    // reaches the sender immediately.
    if (outcome.has_value()) {
      // Count BEFORE the completion leaves: a sender that observed the
      // completion frame must also observe the count (the same contract the
      // refusal counter keeps above).
      agent->transfers_completed_.fetch_add(1, std::memory_order_relaxed);
      AgentTransfersCompleted().Inc();
    }
    AgentCompletionFrames().Inc();
    if (!result.ok()) AgentCompletionErrors().Inc();
    // A completion that cannot be queued leaves the wire unusable.
    const bool conn_fatal =
        !job.write->SendFrame(EncodeCompletion(job.stream_id, result));
    AgentStreamsInFlight().Sub(1);

    if (outcome.has_value()) {
      if (job.entry.on_delivery) {
        job.entry.on_delivery(job.function, *outcome, job.token,
                              std::move(instance));
      } else {
        // Nobody consumes the output: release it to keep the heap bounded
        // (the lease returns the instance when it goes out of scope).
        MutexLock shim_lock(instance->exec_mutex());
        (void)instance->ReleaseRegion(outcome->output);
      }
    } else if (!result.ok()) {
      RR_LOG(Debug) << "node agent: transfer failed: " << result;
    }

    // Bookkeeping belongs to the owning shard's loop. Post after Stop is a
    // benign no-op (Shutdown reclaims connection state itself).
    shards[job.shard].reactor->Post(
        [this, si = job.shard, id = job.conn_id, staged = job.staged,
         fatal = conn_fatal] { OnJobDone(si, id, staged, fatal); });
  }

  void OnJobDone(size_t si, uint64_t id, size_t staged, bool fatal) {
    const auto it = shards[si].conns.find(id);
    if (it == shards[si].conns.end()) return;  // already torn down
    const std::shared_ptr<Conn> conn = it->second;
    conn->last_activity = Now();
    if (fatal) {
      Teardown(si, conn);
      return;
    }
    --conn->jobs_inflight;
    conn->committed_bytes -= staged;
    if (!FlushDeferredCredit(*conn)) Teardown(si, conn);
  }
};

NodeAgent::NodeAgent(osal::TcpListener listener, Options options)
    : listener_(std::move(listener)), options_(options) {}

Result<std::unique_ptr<NodeAgent>> NodeAgent::Start(uint16_t port) {
  return Start(port, Options());
}

Result<std::unique_ptr<NodeAgent>> NodeAgent::Start(uint16_t port,
                                                    Options options) {
  RR_ASSIGN_OR_RETURN(osal::TcpListener listener, osal::TcpListener::Bind(port));
  auto agent = std::unique_ptr<NodeAgent>(
      new NodeAgent(std::move(listener), options));
  agent->reactor_plane_ = std::make_unique<ReactorPlane>(agent.get());
  const Status started = agent->reactor_plane_->Start();
  if (!started.ok()) {
    agent->Shutdown();
    return started;
  }
  return agent;
}

NodeAgent::~NodeAgent() { Shutdown(); }

void NodeAgent::Shutdown() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listener_.fd(), SHUT_RDWR);
  if (reactor_plane_ != nullptr) reactor_plane_->Shutdown();
}

Status NodeAgent::RegisterFunction(std::shared_ptr<ShimPool> pool,
                                   DeliveryCallback on_delivery) {
  if (pool == nullptr) return InvalidArgumentError("null pool");
  const std::string name = pool->name();
  MutexLock lock(mutex_);
  if (!functions_
           .emplace(name, Entry{std::move(pool), std::move(on_delivery)})
           .second) {
    return AlreadyExistsError("function already registered: " + name);
  }
  return Status::Ok();
}

Status NodeAgent::RegisterFunction(Shim* shim, DeliveryCallback on_delivery) {
  if (shim == nullptr) return InvalidArgumentError("null shim");
  RR_ASSIGN_OR_RETURN(std::shared_ptr<ShimPool> pool, ShimPool::Adopt(shim));
  return RegisterFunction(std::move(pool), std::move(on_delivery));
}

Status NodeAgent::UnregisterFunction(const std::string& name) {
  MutexLock lock(mutex_);
  if (functions_.erase(name) == 0) {
    return NotFoundError("function not registered: " + name);
  }
  return Status::Ok();
}

}  // namespace rr::core
