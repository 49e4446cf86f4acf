// The agent wire end to end: MuxClient streams against the NodeAgent.
// Covers completion frames that carry the remote *invocation* outcome (a
// handler failure fails the sender immediately, not at the delivery
// deadline), stream-fatal vs connection-fatal failure isolation (typed
// refusals for unknown functions and exhausted pools, teardown on malformed
// frames and foreign preambles), no leaked guest regions on failure,
// flow-control window exhaustion surfacing typed instead of hanging, fair
// interleaving of small streams past large ones, and the idle-connection
// sweep being invisible to senders (transparent reconnect).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "common/rng.h"
#include "core/mux_client.h"
#include "core/mux_protocol.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "obs/metrics.h"
#include "osal/socket.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

// Every failure injected here must surface within this.
constexpr Nanos kFailureBound = std::chrono::seconds(2);
// Upper bound on waiting for an expected completion callback.
constexpr Nanos kEventBound = std::chrono::seconds(5);

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  spec.tenant = "default";
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

Result<std::shared_ptr<ShimPool>> MakePool(const std::string& name,
                                           runtime::NativeHandler handler,
                                           size_t instances = 2) {
  runtime::PoolOptions options;
  options.min_warm = instances;
  options.max_instances = instances;
  RR_ASSIGN_OR_RETURN(std::shared_ptr<ShimPool> pool,
                      ShimPool::Create(Spec(name), Binary(), {}, options));
  RR_RETURN_IF_ERROR(pool->Deploy(std::move(handler)));
  return pool;
}

// One stream's completion, deliverable from the reactor thread after the
// test body may have failed an ASSERT: heap-allocated and shared with the
// done callback so a late fire never touches a dead stack frame.
struct Completion {
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  Status status;

  MuxClient::DoneFn Arm(std::shared_ptr<Completion> self) {
    return [self = std::move(self)](Status status) {
      {
        std::lock_guard<std::mutex> lock(self->mutex);
        self->fired = true;
        self->status = std::move(status);
      }
      self->cv.notify_all();
    };
  }

  bool WaitFor(Nanos timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [this] { return fired; });
  }

  Status Get() {
    std::lock_guard<std::mutex> lock(mutex);
    return status;
  }
};

std::shared_ptr<osal::Reactor> TestReactor() {
  auto reactor = osal::Reactor::Start("mux-test");
  EXPECT_TRUE(reactor.ok()) << reactor.status();
  return reactor.ok() ? *reactor : nullptr;
}

// Guest regions registered across all of `pool`'s instances. Leases every
// instance at once, so the pool must be idle and hold exactly `instances`.
size_t RegisteredRegions(ShimPool& pool, size_t instances) {
  std::vector<ShimLease> leases;
  size_t regions = 0;
  for (size_t i = 0; i < instances; ++i) {
    auto lease = pool.Lease();
    EXPECT_TRUE(lease.ok()) << lease.status();
    if (!lease.ok()) break;
    regions += (*lease)->data().registered_region_count();
    leases.push_back(std::move(*lease));
  }
  return regions;
}

TEST(MuxWireTest, ConcurrentStreamsRoundTripWithCompletionFrames) {
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  constexpr size_t kStreams = 8;
  std::vector<std::shared_ptr<Completion>> done;
  for (size_t i = 0; i < kStreams; ++i) {
    auto completion = std::make_shared<Completion>();
    const Status started = client->StartStream(
        "echo", rr::Buffer::FromString("stream-" + std::to_string(i)),
        /*token=*/i + 1, kFailureBound, completion->Arm(completion));
    ASSERT_TRUE(started.ok()) << started;
    done.push_back(std::move(completion));
  }
  for (size_t i = 0; i < kStreams; ++i) {
    ASSERT_TRUE(done[i]->WaitFor(kEventBound)) << "stream " << i << " hung";
    EXPECT_TRUE(done[i]->Get().ok()) << "stream " << i << ": " << done[i]->Get();
  }
  EXPECT_EQ((*agent)->transfers_completed(), kStreams);
  EXPECT_EQ(client->streams_in_flight(), 0u);
  EXPECT_TRUE(client->connected());

  // The agent-side stream gauge drains back to zero once every completion
  // frame is on the wire.
  obs::Gauge* streams =
      obs::Registry::Get().gauge("rr_agent_streams_in_flight");
  ASSERT_NE(streams, nullptr);
  bool drained = false;
  for (int attempt = 0; attempt < 100 && !drained; ++attempt) {
    drained = streams->Value() == 0;
    if (!drained) PreciseSleep(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained) << streams->Value() << " streams still gauged";

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StreamFailureLeavesConcurrentStreamsUnharmed) {
  // Stream-fatal is not connection-fatal: one stream's handler rejection
  // rides back as an error completion frame while its neighbours — already
  // interleaved on the same connection — complete untouched. The failed
  // invoke's input region must not leak: its instance returns to the pool.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  constexpr size_t kInstances = 3;
  auto pool = MakePool(
      "picky",
      [](ByteSpan input) -> Result<Bytes> {
        if (AsStringView(input) == "poison") {
          return InternalError("handler rejected input");
        }
        return Bytes(input.begin(), input.end());
      },
      kInstances);
  ASSERT_TRUE(pool.ok()) << pool.status();
  const size_t regions_before = RegisteredRegions(**pool, kInstances);
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto poisoned = std::make_shared<Completion>();
  auto healthy_b = std::make_shared<Completion>();
  auto healthy_c = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("poison"),
                                /*token=*/1, kFailureBound,
                                poisoned->Arm(poisoned))
                  .ok());
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("fine"),
                                /*token=*/2, kFailureBound,
                                healthy_b->Arm(healthy_b))
                  .ok());
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("also-fine"),
                                /*token=*/3, kFailureBound,
                                healthy_c->Arm(healthy_c))
                  .ok());

  ASSERT_TRUE(poisoned->WaitFor(kEventBound));
  ASSERT_TRUE(healthy_b->WaitFor(kEventBound));
  ASSERT_TRUE(healthy_c->WaitFor(kEventBound));
  EXPECT_EQ(poisoned->Get().code(), StatusCode::kInternal) << poisoned->Get();
  EXPECT_NE(poisoned->Get().message().find("handler rejected input"),
            std::string::npos)
      << poisoned->Get();
  EXPECT_TRUE(healthy_b->Get().ok()) << healthy_b->Get();
  EXPECT_TRUE(healthy_c->Get().ok()) << healthy_c->Get();
  EXPECT_EQ((*agent)->transfers_completed(), 2u);
  EXPECT_TRUE(client->connected());

  client->Close();
  // Shutdown joins the invoke workers, so every output release has run.
  (*agent)->Shutdown();
  EXPECT_EQ(RegisteredRegions(**pool, kInstances), regions_before);
}

TEST(MuxWireTest, InvokeFailureKeepsChannelAliveAndLeaksNoRegion) {
  // One stream after another on the same connection, against a pool of one
  // instance: the next stream can only run if the failed invoke handed its
  // instance back, and that instance must hold no leaked input region.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool(
      "picky",
      [](ByteSpan input) -> Result<Bytes> {
        if (AsStringView(input) == "poison") {
          return InternalError("handler rejected input");
        }
        return Bytes(input.begin(), input.end());
      },
      /*instances=*/1);
  ASSERT_TRUE(pool.ok()) << pool.status();
  const size_t regions_before = RegisteredRegions(**pool, 1);
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto poisoned = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("poison"),
                                /*token=*/1, kFailureBound,
                                poisoned->Arm(poisoned))
                  .ok());
  ASSERT_TRUE(poisoned->WaitFor(kEventBound));
  EXPECT_EQ(poisoned->Get().code(), StatusCode::kInternal) << poisoned->Get();
  EXPECT_TRUE(client->connected());

  auto fine = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("fine"),
                                /*token=*/2, kFailureBound, fine->Arm(fine))
                  .ok());
  ASSERT_TRUE(fine->WaitFor(kEventBound));
  EXPECT_TRUE(fine->Get().ok()) << fine->Get();
  EXPECT_TRUE(client->connected());

  client->Close();
  // Shutdown joins the invoke workers, so every output release has run.
  (*agent)->Shutdown();
  EXPECT_EQ((*agent)->transfers_completed(), 1u);
  EXPECT_EQ(RegisteredRegions(**pool, 1), regions_before);
}

TEST(MuxWireTest, UnknownFunctionFailsTypedAndConnectionSurvives) {
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto ghost = std::make_shared<Completion>();
  const Stopwatch timer;
  ASSERT_TRUE(client
                  ->StartStream("ghost", rr::Buffer::FromString("lost"),
                                /*token=*/1, kFailureBound, ghost->Arm(ghost))
                  .ok());
  ASSERT_TRUE(ghost->WaitFor(kEventBound));
  EXPECT_EQ(ghost->Get().code(), StatusCode::kNotFound) << ghost->Get();
  EXPECT_LT(timer.Elapsed(), kFailureBound);

  // Same connection, registered function: the refusal was stream-fatal only.
  auto echo = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("still-here"),
                                /*token=*/2, kFailureBound, echo->Arm(echo))
                  .ok());
  ASSERT_TRUE(echo->WaitFor(kEventBound));
  EXPECT_TRUE(echo->Get().ok()) << echo->Get();

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, PoolExhaustedAgentRefusesStreamTypedAndRecovers) {
  NodeAgent::Options options;
  options.transfer_deadline = kFailureBound;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();

  runtime::PoolOptions pool_options;
  pool_options.min_warm = 1;
  pool_options.max_instances = 1;
  pool_options.acquire_timeout = std::chrono::milliseconds(50);
  auto pool = ShimPool::Create(Spec("choked"), Binary(), {}, pool_options);
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*pool)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  {
    // Occupy the pool's only instance: the agent cannot serve the stream.
    auto hog = (*pool)->Lease();
    ASSERT_TRUE(hog.ok()) << hog.status();

    auto starved = std::make_shared<Completion>();
    const Stopwatch timer;
    ASSERT_TRUE(client
                    ->StartStream("choked", rr::Buffer::FromString("starved"),
                                  /*token=*/1, kFailureBound,
                                  starved->Arm(starved))
                    .ok());
    ASSERT_TRUE(starved->WaitFor(kEventBound));
    EXPECT_EQ(starved->Get().code(), StatusCode::kResourceExhausted)
        << starved->Get();
    EXPECT_NE(starved->Get().message().find("no instance available"),
              std::string::npos)
        << starved->Get();
    EXPECT_LT(timer.Elapsed(), kFailureBound);
  }
  EXPECT_EQ((*agent)->transfers_refused(), 1u);
  EXPECT_EQ((*agent)->transfers_completed(), 0u);

  // The instance is back and the SAME client serves the next stream: the
  // refusal degraded one transfer, not the connection.
  auto recovered = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("choked", rr::Buffer::FromString("recovered"),
                                /*token=*/2, kFailureBound,
                                recovered->Arm(recovered))
                  .ok());
  ASSERT_TRUE(recovered->WaitFor(kEventBound));
  EXPECT_TRUE(recovered->Get().ok()) << recovered->Get();
  EXPECT_EQ((*agent)->transfers_completed(), 1u);
  EXPECT_TRUE(client->connected());

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, SmallStreamCompletesWhileLargeStreamDrains) {
  // Fair round-robin chunking: a multi-MiB stream occupies the wire one
  // 64 KiB quantum per turn, so a tiny stream opened after it interleaves,
  // invokes, and completes while the big body is still draining.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("drain", [](ByteSpan) -> Result<Bytes> {
    return Bytes{1};
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  std::mutex order_mutex;
  std::vector<std::string> order;
  auto record = [&order_mutex, &order](const std::string& name,
                                       std::shared_ptr<Completion> completion) {
    return [&order_mutex, &order, name,
            completion = std::move(completion)](Status status) {
      {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(name);
      }
      {
        std::lock_guard<std::mutex> lock(completion->mutex);
        completion->fired = true;
        completion->status = std::move(status);
      }
      completion->cv.notify_all();
    };
  };

  Bytes big_bytes(4 * 1024 * 1024);
  Rng rng(11);
  rng.Fill(big_bytes);
  auto big = std::make_shared<Completion>();
  auto small = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("drain", rr::Buffer::Adopt(std::move(big_bytes)),
                                /*token=*/1, kEventBound, record("big", big))
                  .ok());
  ASSERT_TRUE(client
                  ->StartStream("drain", rr::Buffer::FromString("wee"),
                                /*token=*/2, kEventBound, record("small", small))
                  .ok());

  ASSERT_TRUE(small->WaitFor(kEventBound));
  ASSERT_TRUE(big->WaitFor(kEventBound));
  EXPECT_TRUE(small->Get().ok()) << small->Get();
  EXPECT_TRUE(big->Get().ok()) << big->Get();
  {
    std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "small")
        << "the big stream head-of-line-blocked the small one";
  }

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, WindowExhaustionStallsThenFailsTypedNotHung) {
  // A peer that accepts bytes but never grants window updates: the stream
  // sends exactly its initial window, leaves the send ring (counted as a
  // stall), and the progress deadline fails it typed — no hang, no busy
  // spin on the wire.
  auto listener = osal::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", listener->port());

  obs::Counter* stalls =
      obs::Registry::Get().counter("rr_agent_stream_stalls_total");
  ASSERT_NE(stalls, nullptr);
  const uint64_t stalls_before = stalls->Value();

  auto completion = std::make_shared<Completion>();
  Bytes payload(kMuxInitialWindow + 1024);
  Rng rng(13);
  rng.Fill(payload);
  const Stopwatch timer;
  ASSERT_TRUE(client
                  ->StartStream("sink", rr::Buffer::Adopt(std::move(payload)),
                                /*token=*/1, std::chrono::milliseconds(300),
                                completion->Arm(completion))
                  .ok());

  // The mute peer drains whatever the client sends so TCP backpressure never
  // masks the flow-control stall, but it grants nothing back.
  auto peer = listener->Accept();
  ASSERT_TRUE(peer.ok()) << peer.status();
  std::thread mute_reader([&peer] {
    Bytes sink(64 * 1024);
    for (;;) {
      auto n = peer->ReceiveSome(sink);
      if (!n.ok() || *n == 0) return;
    }
  });

  ASSERT_TRUE(completion->WaitFor(kEventBound)) << "stalled stream hung";
  EXPECT_EQ(completion->Get().code(), StatusCode::kDeadlineExceeded)
      << completion->Get();
  EXPECT_LT(timer.Elapsed(), kFailureBound);
  EXPECT_GT(stalls->Value(), stalls_before)
      << "window exhaustion was never counted as a stall";

  // Close the client first: its FIN ends the mute reader's blocking receive,
  // so the peer connection is only closed after its reader thread is done
  // touching it.
  client->Close();
  mute_reader.join();
  peer->Close();
}

TEST(MuxWireTest, IdleConnectionSweptAndNextStreamReconnects) {
  NodeAgent::Options options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto first = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("one"),
                                /*token=*/1, kFailureBound, first->Arm(first))
                  .ok());
  ASSERT_TRUE(first->WaitFor(kEventBound));
  ASSERT_TRUE(first->Get().ok()) << first->Get();
  EXPECT_EQ((*agent)->active_connections(), 1u);

  // Nothing in flight: the agent sweeps the connection, and the client
  // observes the close.
  bool swept = false;
  for (int attempt = 0; attempt < 300 && !swept; ++attempt) {
    swept = (*agent)->active_connections() == 0 && !client->connected();
    if (!swept) PreciseSleep(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(swept) << "idle connection never swept: "
                     << (*agent)->active_connections() << " live, connected="
                     << client->connected();

  // The sweep is invisible to the sender: the next stream reconnects inline
  // and completes.
  auto second = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("two"),
                                /*token=*/2, kFailureBound,
                                second->Arm(second))
                  .ok());
  ASSERT_TRUE(second->WaitFor(kEventBound));
  EXPECT_TRUE(second->Get().ok()) << second->Get();
  EXPECT_EQ((*agent)->transfers_completed(), 2u);

  client->Close();
  (*agent)->Shutdown();
}

// ---------------------------------------------------------------------------
// Raw-wire admission and flow-control enforcement: a hand-rolled peer that
// speaks the mux dialect byte by byte, so the tests control exactly what hits
// the agent — including frames MuxClient would never send.
// ---------------------------------------------------------------------------

// Dials the agent and announces the mux dialect.
Result<osal::Connection> DialMux(uint16_t port) {
  RR_ASSIGN_OR_RETURN(osal::Connection conn,
                      osal::TcpConnect("127.0.0.1", port));
  uint8_t preamble[kMuxPreambleBytes];
  StoreLE<uint16_t>(preamble, kMuxPreambleMagic);
  preamble[2] = kMuxVersion;
  preamble[3] = 0;
  RR_RETURN_IF_ERROR(conn.Send(ByteSpan(preamble, sizeof(preamble))));
  return conn;
}

Bytes EncodeRawOpen(uint32_t stream_id, uint64_t token, uint64_t body_len,
                    const std::string& function) {
  const size_t payload = 8 + 8 + 2 + function.size();
  Bytes frame(kMuxFrameHeaderBytes + payload);
  MuxFrameHeader h;
  h.type = kMuxFrameOpen;
  h.stream_id = stream_id;
  h.payload_length = static_cast<uint32_t>(payload);
  EncodeMuxFrameHeader(h, frame.data());
  uint8_t* p = frame.data() + kMuxFrameHeaderBytes;
  StoreLE<uint64_t>(p, token);
  StoreLE<uint64_t>(p + 8, body_len);
  StoreLE<uint16_t>(p + 16, static_cast<uint16_t>(function.size()));
  std::memcpy(p + 18, function.data(), function.size());
  return frame;
}

Bytes EncodeRawData(uint32_t stream_id, ByteSpan chunk) {
  Bytes frame(kMuxFrameHeaderBytes + chunk.size());
  MuxFrameHeader h;
  h.type = kMuxFrameData;
  h.stream_id = stream_id;
  h.payload_length = static_cast<uint32_t>(chunk.size());
  EncodeMuxFrameHeader(h, frame.data());
  std::memcpy(frame.data() + kMuxFrameHeaderBytes, chunk.data(), chunk.size());
  return frame;
}

Bytes EncodeRawCancel(uint32_t stream_id) {
  Bytes frame(kMuxFrameHeaderBytes);
  MuxFrameHeader h;
  h.type = kMuxFrameCancel;
  h.stream_id = stream_id;
  EncodeMuxFrameHeader(h, frame.data());
  return frame;
}

struct RawCompletion {
  uint32_t stream_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string detail;
};

// Reads agent->sender frames until a completion arrives (window updates for
// other streams are skipped — they carry no payload).
Result<RawCompletion> ReadCompletion(osal::Connection& conn) {
  for (;;) {
    uint8_t header[kMuxFrameHeaderBytes];
    RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(header, sizeof(header))));
    const MuxFrameHeader h = DecodeMuxFrameHeader(header);
    if (h.type == kMuxFrameWindowUpdate) continue;
    if (h.type != kMuxFrameCompletion) {
      return InternalError("unexpected agent frame type " +
                           std::to_string(static_cast<int>(h.type)));
    }
    RawCompletion out;
    out.stream_id = h.stream_id;
    out.code = static_cast<StatusCode>(h.aux);
    out.detail.resize(h.payload_length);
    if (h.payload_length > 0) {
      RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(
          reinterpret_cast<uint8_t*>(out.detail.data()), out.detail.size())));
    }
    return out;
  }
}

TEST(MuxWireTest, HugeDeclaredBodyRefusedAtOpenWithoutReservation) {
  // The open frame declares body length; the agent must treat it as a
  // *commitment to refuse*, not a buffer to allocate. A protocol-plausible
  // 1 GiB declaration (under serde::kMaxFrameBytes, far over the staging
  // cap) in a 40-byte frame gets a typed kResourceExhausted completion
  // immediately — stream-fatal only, with the connection still serving real
  // transfers.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(
      conn->Send(EncodeRawOpen(1, /*token=*/1, uint64_t{1} << 30, "echo"))
          .ok());
  auto refused = ReadCompletion(*conn);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->stream_id, 1u);
  EXPECT_EQ(refused->code, StatusCode::kResourceExhausted) << refused->detail;
  EXPECT_NE(refused->detail.find("staging capacity"), std::string::npos)
      << refused->detail;
  EXPECT_EQ((*agent)->transfers_refused(), 1u);

  // Same connection: a sane stream still opens, stages, invokes, completes.
  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, /*token=*/2, 5, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(2, AsBytes("hello"))).ok());
  auto ok = ReadCompletion(*conn);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->stream_id, 2u);
  EXPECT_EQ(ok->code, StatusCode::kOk) << ok->detail;
  EXPECT_EQ((*agent)->transfers_completed(), 1u);

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StreamTableCapRefusesOpensTyped) {
  // Stream table entries are not free to mint: opens past max_conn_streams
  // are refused typed, and draining a stream frees its slot.
  NodeAgent::Options options;
  options.max_conn_streams = 2;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  // Two streams stage (bodies incomplete) and pin the table.
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, 1, 100, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, 2, 100, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(3, 3, 1, "echo")).ok());
  auto refused = ReadCompletion(*conn);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->stream_id, 3u);
  EXPECT_EQ(refused->code, StatusCode::kResourceExhausted) << refused->detail;
  EXPECT_NE(refused->detail.find("concurrent streams"), std::string::npos)
      << refused->detail;
  EXPECT_EQ((*agent)->transfers_refused(), 1u);

  // Finishing stream 1 frees its slot; the connection keeps serving.
  ASSERT_TRUE(conn->Send(EncodeRawData(1, Bytes(100, 0x5a))).ok());
  auto done = ReadCompletion(*conn);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done->stream_id, 1u);
  EXPECT_EQ(done->code, StatusCode::kOk) << done->detail;
  ASSERT_TRUE(conn->Send(EncodeRawOpen(4, 4, 1, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(4, AsBytes("x"))).ok());
  auto fourth = ReadCompletion(*conn);
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(fourth->stream_id, 4u);
  EXPECT_EQ(fourth->code, StatusCode::kOk) << fourth->detail;

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, CommitmentCapBoundsOpensAndCancelReleasesIt) {
  // An admitted open commits min(body_len, kMuxInitialWindow) against the
  // per-connection cap; opens past the cap are refused typed; a cancel hands
  // its commitment back.
  NodeAgent::Options options;
  options.max_conn_staged_bytes = 2 * kMuxInitialWindow;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  // Each commits one initial window; together they fill the cap exactly.
  const uint64_t big = 2 * kMuxInitialWindow;
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, 1, big, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, 2, big, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(3, 3, 1, "echo")).ok());
  auto refused = ReadCompletion(*conn);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->stream_id, 3u);
  EXPECT_EQ(refused->code, StatusCode::kResourceExhausted) << refused->detail;
  EXPECT_NE(refused->detail.find("capacity exhausted"), std::string::npos)
      << refused->detail;

  // Cancel stream 1: its commitment returns to the budget, so the retry is
  // admitted and completes.
  ASSERT_TRUE(conn->Send(EncodeRawCancel(1)).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(4, 4, 1, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(4, AsBytes("y"))).ok());
  auto retried = ReadCompletion(*conn);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->stream_id, 4u);
  EXPECT_EQ(retried->code, StatusCode::kOk) << retried->detail;

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StalledStreamFailsTypedAtTransferDeadline) {
  // A sender that opens a stream and stops mid-body: the agent's sweep fails
  // the stream typed at its transfer deadline, while the connection — at a
  // frame boundary — keeps serving.
  NodeAgent::Options options;
  options.transfer_deadline = std::chrono::milliseconds(200);
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(conn->SetIoTimeouts(kEventBound).ok());
  const Stopwatch timer;
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, /*token=*/1, 100, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(1, Bytes(10, 0x11))).ok());
  auto stalled = ReadCompletion(*conn);
  ASSERT_TRUE(stalled.ok()) << stalled.status();
  EXPECT_EQ(stalled->stream_id, 1u);
  EXPECT_EQ(stalled->code, StatusCode::kDeadlineExceeded) << stalled->detail;
  EXPECT_LT(timer.Elapsed(), kFailureBound);

  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, /*token=*/2, 5, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(2, AsBytes("hello"))).ok());
  auto ok = ReadCompletion(*conn);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->stream_id, 2u);
  EXPECT_EQ(ok->code, StatusCode::kOk) << ok->detail;
  EXPECT_EQ((*agent)->transfers_completed(), 1u);

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, DataPastGrantedWindowIsConnectionFatal) {
  // The flow-control window is enforcement, not etiquette: with grants
  // deferred (commitment cap full), a peer that keeps sending past its
  // granted credit would balloon the heap — the agent kills the connection
  // instead.
  NodeAgent::Options options;
  // 1.5 windows: stream 1 (one window) + stream 2 (half) fill the cap, so
  // every further grant for stream 1 stays deferred and its credit is pinned
  // at kMuxInitialWindow.
  options.max_conn_staged_bytes = kMuxInitialWindow + kMuxInitialWindow / 2;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(
      conn->Send(EncodeRawOpen(1, 1, kMuxInitialWindow + kMuxMaxChunk, "echo"))
          .ok());
  ASSERT_TRUE(
      conn->Send(EncodeRawOpen(2, 2, kMuxInitialWindow / 2, "echo")).ok());
  // Exactly the granted window is fine...
  const Bytes chunk(kMuxMaxChunk, 0x7e);
  for (size_t sent = 0; sent < kMuxInitialWindow; sent += kMuxMaxChunk) {
    ASSERT_TRUE(conn->Send(EncodeRawData(1, chunk)).ok());
  }
  // ...one chunk past it is not: the agent tears the connection down. The
  // gauge is checked first so a regression fails the assert instead of
  // hanging a blocking read on a healthy connection.
  ASSERT_TRUE(conn->Send(EncodeRawData(1, chunk)).ok());
  bool gone = false;
  for (int attempt = 0; attempt < 300 && !gone; ++attempt) {
    gone = (*agent)->active_connections() == 0;
    if (!gone) PreciseSleep(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(gone) << "window violation did not kill the connection ("
                    << (*agent)->active_connections() << " live)";
  Bytes sink(4096);
  const auto n = conn->ReceiveSome(sink);
  EXPECT_TRUE(!n.ok() || *n == 0) << "wire still open after teardown";

  conn->Close();
  (*agent)->Shutdown();
}

// Reads until the agent closes the connection. EOF (0) means the agent
// dropped it; the I/O timeout turns a regression into a failure, not a hang.
Result<size_t> AwaitClose(osal::Connection& conn) {
  RR_RETURN_IF_ERROR(conn.SetIoTimeouts(kEventBound));
  uint8_t probe = 0;
  return conn.ReceiveSome(MutableByteSpan(&probe, 1));
}

TEST(MuxWireTest, ImplausibleHeaderTearsAgentChannelDown) {
  // A frame header the agent must refuse to trust: the byte stream past it
  // cannot be re-framed, so the connection is dropped.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("sink", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  Bytes header(kMuxFrameHeaderBytes);
  MuxFrameHeader h;
  h.type = kMuxFrameOpen;
  h.stream_id = 1;
  h.payload_length = UINT32_MAX;
  EncodeMuxFrameHeader(h, header.data());
  ASSERT_TRUE(conn->Send(header).ok());

  auto n = AwaitClose(*conn);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u);
  (*agent)->Shutdown();
}

TEST(MuxWireTest, ForeignPreambleIsDroppedNotHung) {
  // The retired sequential dialect opened with [u16 LE name length][name].
  // The agent speaks only mux: any first u16 other than the magic drops the
  // connection at once instead of waiting for bytes that never frame.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("sink", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = osal::TcpConnect("127.0.0.1", (*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  const std::string name = "sink";
  Bytes preamble(2 + name.size());
  StoreLE<uint16_t>(preamble.data(), static_cast<uint16_t>(name.size()));
  std::memcpy(preamble.data() + 2, name.data(), name.size());
  ASSERT_TRUE(conn->Send(preamble).ok());

  auto n = AwaitClose(*conn);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ((*agent)->transfers_completed(), 0u);
  (*agent)->Shutdown();
}

TEST(MuxWireTest, PeerThatStopsReadingIsDropped) {
  // A peer that keeps sending but never reads buries its own completions:
  // once more than the outbound cap (4 MiB) of control frames is queued for
  // it, the agent drops the connection instead of buffering without bound.
  // Each open names an unknown 256-byte function, so each is refused with a
  // ~290-byte completion and stages nothing.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  // A small receive buffer, set before connect so the window the agent
  // sees stays small: the completions back up on the agent's side.
  osal::UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(fd.valid());
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*agent)->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  osal::Connection conn(std::move(fd));
  // A send that stops making progress fails instead of hanging the test.
  ASSERT_TRUE(conn.SetIoTimeouts(kEventBound).ok());
  uint8_t preamble[kMuxPreambleBytes];
  StoreLE<uint16_t>(preamble, kMuxPreambleMagic);
  preamble[2] = kMuxVersion;
  preamble[3] = 0;
  ASSERT_TRUE(conn.Send(ByteSpan(preamble, sizeof(preamble))).ok());

  // Send opens in batches, never reading, until a send fails: the agent
  // closed the socket. The cap is reached after about 8 MiB of completions
  // (agent send buffer + outbound queue); the byte bound is far above that.
  const std::string unknown(256, 'u');
  constexpr size_t kBatch = 256;
  constexpr uint64_t kMaxSent = uint64_t{256} << 20;
  constexpr Nanos kDropBound = std::chrono::seconds(20);
  uint32_t next_stream = 1;
  uint64_t sent = 0;
  bool dropped = false;
  const Stopwatch elapsed;
  while (!dropped && sent < kMaxSent && elapsed.Elapsed() < kDropBound) {
    Bytes batch;
    for (size_t i = 0; i < kBatch; ++i) {
      const Bytes open = EncodeRawOpen(next_stream, next_stream, 1, unknown);
      ++next_stream;
      batch.insert(batch.end(), open.begin(), open.end());
    }
    size_t off = 0;
    while (off < batch.size()) {
      const ssize_t n = ::send(conn.fd(), batch.data() + off,
                               batch.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        // EPIPE / ECONNRESET: the agent dropped us. A timeout would mean
        // the agent stopped reading instead — a failure, not a drop.
        dropped = errno == EPIPE || errno == ECONNRESET;
        ASSERT_TRUE(dropped) << "send failed: " << std::strerror(errno);
        break;
      }
      off += static_cast<size_t>(n);
      sent += static_cast<uint64_t>(n);
    }
  }
  EXPECT_TRUE(dropped) << "agent still holds the connection after " << sent
                       << " bytes of opens";
  conn.Close();
  bool released = false;
  for (int attempt = 0; attempt < 100 && !released; ++attempt) {
    released = (*agent)->active_connections() == 0;
    if (!released) PreciseSleep(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(released) << "agent still counts the dropped connection";

  // The agent keeps serving a peer that reads.
  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());
  auto completion = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("still here"),
                                /*token=*/1, kFailureBound,
                                completion->Arm(completion))
                  .ok());
  ASSERT_TRUE(completion->WaitFor(kEventBound)) << "stream hung";
  EXPECT_TRUE(completion->Get().ok()) << completion->Get();

  client->Close();
  (*agent)->Shutdown();
}

// ---------------------------------------------------------------------------
// End to end through api::Runtime: completion frames beat the deadline
// ---------------------------------------------------------------------------

TEST(MuxWireTest, RemoteHandlerFailureBeatsRemoteDeadlineByCompletionFrame) {
  // The regression the completion frame exists for: with a 60 s backstop
  // configured, a remote handler failure must fail the edge in well under a
  // couple of seconds — the error rides the completion frame, it does not
  // wait out remote_deadline.
  api::Runtime::Options options;
  options.remote_deadline = std::chrono::seconds(60);
  api::Runtime rt("wf", options);

  auto a = Shim::Create(Spec("a"), Binary());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE((*a)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  Endpoint front;
  front.shim = a->get();
  front.location = {"n1", ""};
  ASSERT_TRUE(rt.Register(front).ok());

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = Shim::Create(Spec("b"), Binary());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE((*b)
                  ->Deploy([](ByteSpan) -> Result<Bytes> {
                    return InternalError("handler rejected input");
                  })
                  .ok());
  Endpoint remote;
  remote.shim = b->get();
  remote.location = {"n2", ""};
  remote.port = (*agent)->port();
  ASSERT_TRUE(rt.Register(remote).ok());
  ASSERT_TRUE((*agent)->RegisterFunction(b->get(), rt.DeliverySink()).ok());

  const Stopwatch timer;
  auto invocation = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("doomed"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  const Nanos elapsed = timer.Elapsed();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
  EXPECT_NE(result.status().message().find("handler rejected input"),
            std::string::npos)
      << result.status();
  EXPECT_LT(elapsed, kFailureBound)
      << "handler failure waited on the remote_deadline backstop";

  (*agent)->Shutdown();
}

TEST(MuxWireTest, NonPositiveRemoteDeadlineMeansUnboundedNotImmediate) {
  // remote_deadline <= 0 disables the sweeper backstop — it must never read
  // as "expire immediately". Remote edges still resolve through their real
  // signals: a success via the delivery callback, a handler failure via the
  // completion frame, both typed and prompt.
  api::Runtime::Options options;
  options.remote_deadline = Nanos{0};
  api::Runtime rt("wf", options);

  auto a = Shim::Create(Spec("a"), Binary());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE((*a)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  Endpoint front;
  front.shim = a->get();
  front.location = {"n1", ""};
  ASSERT_TRUE(rt.Register(front).ok());

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = Shim::Create(Spec("b"), Binary());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE((*b)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    if (AsStringView(input) == "poison") {
                      return InternalError("handler rejected input");
                    }
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  Endpoint remote;
  remote.shim = b->get();
  remote.location = {"n2", ""};
  remote.port = (*agent)->port();
  ASSERT_TRUE(rt.Register(remote).ok());
  ASSERT_TRUE((*agent)->RegisterFunction(b->get(), rt.DeliverySink()).ok());

  auto healthy = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("fine"));
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  const Result<rr::Buffer>& ok = (*healthy)->Wait();
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ToString(*ok), "fine");

  const Stopwatch timer;
  auto doomed = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("poison"));
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  const Result<rr::Buffer>& failed = (*doomed)->Wait();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal) << failed.status();
  EXPECT_LT(timer.Elapsed(), kFailureBound)
      << "disabled backstop delayed a completion-frame failure";

  (*agent)->Shutdown();
}

}  // namespace
}  // namespace rr::core
