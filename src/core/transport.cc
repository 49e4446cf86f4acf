#include "core/transport.h"

#include "common/mutex.h"
#include <atomic>

#include <map>

#include "core/kernel_channel.h"
#include "core/mux_client.h"
#include "core/network_channel.h"
#include "core/region_guard.h"
#include "core/user_channel.h"
#include "osal/reactor.h"

namespace rr::core {

namespace {

// Locks both instances' memory planes for the duration of a guest-direct
// transfer: the source instance may already be mid-invocation for another
// run (its pool re-leased it after the producing invocation returned), and
// the target is the caller's leased instance, whose memory a payload
// consumer of an OLDER region may touch concurrently. MutexPairLock's
// deadlock-avoidance handles opposing pairs (a->b vs b->a) and the
// degenerate self-hop (same instance both sides) locks once.
class PairLock {
 public:
  PairLock(Shim& source, Shim& target)
      : both_(source.exec_mutex(), target.exec_mutex()) {}

 private:
  MutexPairLock both_;
};

// --- user space -------------------------------------------------------------
// Channel construction is two pointer assignments; the hop holds no wire
// state at all. Exclusivity of both linear memories comes from the pool
// layer: the caller leased `target`, and a guest-resident payload's source
// instance is pinned by the payload.
class UserSpaceHop : public Hop {
 public:
  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               TransferTiming* timing,
                               const MemoryRegion* into) override {
    (void)timing;  // one in-process copy; no kernel/socket phase to split out
    if (payload.guest_resident()) {
      // Classic §4.1 path: the single user-space copy between the two
      // linear memories, straight from the producer's registered region.
      Shim& source = *payload.guest_shim();
      PairLock lock(source, target);
      RR_ASSIGN_OR_RETURN(UserSpaceChannel channel,
                          UserSpaceChannel::Create(&source, &target));
      return channel.Transfer(*payload.guest_region(), into);
    }
    // Host-resident payload (a fan-out's shared chunk): the hand-off was a
    // refcount bump; the only byte movement left is the unavoidable
    // guest-boundary write into the target, gathered over the chunks.
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer, payload.Materialize());
    MutexLock lock(target.exec_mutex());
    MemoryRegion dest;
    RegionGuard guard;
    if (into != nullptr) {
      dest = *into;  // caller-owned fan-in slice: never released here
    } else {
      RR_ASSIGN_OR_RETURN(
          dest, target.PrepareInput(static_cast<uint32_t>(buffer.size())));
      guard = RegionGuard(&target, dest);
    }
    RR_RETURN_IF_ERROR(target.WriteInput(dest, buffer));
    guard.Dismiss();
    return dest;
  }

  TransferMode mode() const override { return TransferMode::kUserSpace; }
};

class UserSpaceTransport : public Transport {
 public:
  TransferMode mode() const override { return TransferMode::kUserSpace; }

  Result<std::unique_ptr<Hop>> Connect(Endpoint& source,
                                       const Endpoint& target,
                                       const TransportOptions& /*options*/) override {
    // Validate the trust precondition once, at establishment. (No wire, no
    // deadline: the transfer is two in-process memory operations.)
    RR_RETURN_IF_ERROR(
        UserSpaceChannel::Create(source.shim, target.shim).status());
    return std::unique_ptr<Hop>(new UserSpaceHop());
  }
};

// --- kernel space and loopback network -------------------------------------
// Both socket ends live in this process — an AF_UNIX pair for a kernel hop, a
// connected loopback TCP pair for a network hop whose target has no agent —
// so the calling thread moves each frame end to end (FramePump): the
// destination is placed first, then the bytes travel from the producer's
// linear memory — or a host-resident payload's shared chunks — through the
// kernel socket buffer straight into the target's linear memory. Placing
// before the first byte is sent keeps the wire in sync when placement fails;
// a failure once bytes are on the wire kills the hop, so the executor evicts
// and re-establishes it.
class PumpHop : public Hop {
 public:
  PumpHop(TransferMode mode, FramePump pump, Nanos idle_bound)
      : mode_(mode), pump_(std::move(pump)), idle_bound_(idle_bound) {}

  TransferMode mode() const override { return mode_; }
  bool healthy() const override { return wire_ok_.load(); }
  void Close() override {
    wire_ok_.store(false);
    pump_.Shutdown();
  }

  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               TransferTiming* timing,
                               const MemoryRegion* into) override {
    if (payload.size() > UINT32_MAX) {
      return InvalidArgumentError("frame exceeds 32-bit guest memory");
    }
    const auto length = static_cast<uint32_t>(payload.size());
    // A guest-resident payload is sent from the producer's registered output
    // region and keeps it (its last handle releases it). A host-resident one
    // (a fan-out chunk, the workflow input) shares its chunks for free.
    Shim* const source = payload.guest_resident() ? payload.guest_shim() : nullptr;
    rr::Buffer host;
    if (source == nullptr) {
      RR_ASSIGN_OR_RETURN(host, payload.Materialize());
    }
    MutexLock hop_lock(mutex_);
    if (!healthy()) return UnavailableError("hop wire is closed");
    PairLock lock(source != nullptr ? *source : target, target);
    MemoryRegion dest;
    RegionGuard guard;
    if (into != nullptr) {
      // A fan-in gather slice: the frame must fill exactly the slice the
      // executor carved out of the merged region.
      if (length != into->length) {
        return InternalError("fan-in slice length mismatch: frame carries " +
                             std::to_string(length) + " bytes for a " +
                             std::to_string(into->length) + "-byte slice");
      }
      dest = *into;
    } else {
      RR_ASSIGN_OR_RETURN(dest, target.PrepareInput(length));
      guard = RegionGuard(&target, dest);
    }
    RR_ASSIGN_OR_RETURN(const MutableByteSpan dest_span, target.InputSpan(dest));
    // Viewed after placement: PrepareInput may grow the target's memory,
    // which on a self-hop is also the source's.
    rr::BufferView source_view(host);
    if (source != nullptr) {
      RR_ASSIGN_OR_RETURN(const ByteSpan region_view,
                          source->OutputView(*payload.guest_region()));
      source_view = rr::BufferView(region_view);
    }
    const Stopwatch transfer_timer;
    const Status moved = pump_.Transfer(source_view, dest_span, idle_bound_);
    if (!moved.ok()) {
      Close();  // part of the frame may still sit in the socket
      return moved;
    }
    if (timing != nullptr) timing->transfer += transfer_timer.Elapsed();
    guard.Dismiss();
    return dest;
  }

 private:
  const TransferMode mode_;
  Mutex mutex_;  // serializes concurrent transfers over this pair's wire
  FramePump pump_;
  const Nanos idle_bound_;
  std::atomic<bool> wire_ok_{true};
};

class KernelTransport : public Transport {
 public:
  TransferMode mode() const override { return TransferMode::kKernelSpace; }

  Result<std::unique_ptr<Hop>> Connect(Endpoint& /*source*/,
                                       const Endpoint& /*target*/,
                                       const TransportOptions& options) override {
    RR_ASSIGN_OR_RETURN(auto ends, osal::ConnectedPair());
    RR_ASSIGN_OR_RETURN(FramePump pump,
                        FramePump::Create(std::move(ends.first),
                                          std::move(ends.second),
                                          KernelPumpCounters()));
    return std::unique_ptr<Hop>(
        new PumpHop(mode(), std::move(pump), options.transfer_deadline));
  }
};

// --- network ----------------------------------------------------------------
// Two shapes, chosen by the target's ingress at Connect time: a loopback hop
// (target port 0) is a PumpHop over TCP, counted on the wire series; an agent
// hop (port != 0) opens streams on the remote NodeAgent, which owns receive +
// invoke (§4.3, Algorithm 1).
// The agent hop: a thin facade over the per-agent MuxClient that the
// transport shares across every (source, target) pair bound for the same
// host:port. Dispatch is fully async — DispatchAsync's callback carries the
// remote *invocation* outcome (completion frame), so a handler failure fails
// the edge immediately instead of waiting out a delivery deadline.
class MuxAgentHop : public Hop {
 public:
  MuxAgentHop(std::shared_ptr<MuxClient> client, std::string function,
              Nanos transfer_deadline)
      : client_(std::move(client)),
        function_(std::move(function)),
        transfer_deadline_(transfer_deadline) {}

  TransferMode mode() const override { return TransferMode::kNetwork; }
  bool invoke_coupled() const override { return true; }

  // Always healthy: the shared client reconnects transparently on the next
  // stream (an agent-side idle sweep is absorbed, not an eviction event).
  // Eviction of this hop object is therefore harmless churn — Close is a
  // no-op because the client (and its wire) belongs to every hop bound for
  // this agent, not to this pair.
  bool healthy() const override { return true; }
  void Close() override {}

  Result<MemoryRegion> Forward(const Payload& /*payload*/, Shim& /*target*/,
                               TransferTiming* /*timing*/,
                               const MemoryRegion* /*into*/) override {
    return FailedPreconditionError(
        "delivery through a NodeAgent ingress is invoke-coupled; DispatchAsync "
        "the stream and consume the agent's delivery callback");
  }

  Status DispatchAsync(const Payload& payload, uint64_t token,
                       TransferTiming* timing, DispatchDoneFn done) override {
    TransferTiming egress{};
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer,
                        payload.Materialize(&egress.wasm_io));
    if (timing != nullptr) *timing += egress;
    // The stream holds a refcount on the payload's chunks; the caller may
    // release its own reference as soon as this returns OK.
    return client_->StartStream(function_, buffer, token, transfer_deadline_,
                                std::move(done));
  }

 private:
  const std::shared_ptr<MuxClient> client_;
  const std::string function_;
  const Nanos transfer_deadline_;
};

class NetworkTransport : public Transport {
 public:
  ~NetworkTransport() override {
    // Close clients first (their in-flight streams fail with kUnavailable
    // and fire their callbacks), then stop the loop they ran on.
    for (auto& [key, client] : clients_) client->Close();
    clients_.clear();
    if (client_reactor_ != nullptr) client_reactor_->Stop();
  }

  TransferMode mode() const override { return TransferMode::kNetwork; }

  Result<std::unique_ptr<Hop>> Connect(Endpoint& /*source*/,
                                       const Endpoint& target,
                                       const TransportOptions& options) override {
    if (target.port == 0) {
      // No external ingress registered: connect a loopback TCP pair on
      // demand (the in-process stand-in for the remote node's shim port).
      RR_ASSIGN_OR_RETURN(osal::TcpListener listener,
                          osal::TcpListener::Bind(0));
      RR_ASSIGN_OR_RETURN(osal::Connection send_end,
                          osal::TcpConnect(target.host, listener.port()));
      send_end.SetNoDelay(true);
      RR_ASSIGN_OR_RETURN(osal::Connection recv_end, listener.Accept());
      RR_ASSIGN_OR_RETURN(
          FramePump pump,
          FramePump::Create(std::move(send_end), std::move(recv_end),
                            NetworkPumpCounters()));
      return std::unique_ptr<Hop>(
          new PumpHop(mode(), std::move(pump), options.transfer_deadline));
    }
    // Route through the target node's agent: one shared client (one
    // connection, one reactor) per remote agent, every pair's transfers
    // interleaved as streams.
    RR_ASSIGN_OR_RETURN(std::shared_ptr<MuxClient> client,
                        ClientFor(target.host, target.port));
    return std::unique_ptr<Hop>(new MuxAgentHop(
        std::move(client), target.shim->name(), options.transfer_deadline));
  }

 private:
  Result<std::shared_ptr<MuxClient>> ClientFor(const std::string& host,
                                               uint16_t port) {
    MutexLock lock(clients_mutex_);
    if (client_reactor_ == nullptr) {
      RR_ASSIGN_OR_RETURN(client_reactor_, osal::Reactor::Start("mux-client"));
    }
    const std::string key = host + ":" + std::to_string(port);
    auto& client = clients_[key];
    if (client == nullptr) {
      client = MuxClient::Create(client_reactor_, host, port);
    }
    return client;
  }

  Mutex clients_mutex_;
  std::shared_ptr<osal::Reactor> client_reactor_;
  std::map<std::string, std::shared_ptr<MuxClient>> clients_;
};

}  // namespace

Result<InvokeOutcome> Hop::ForwardAndInvoke(const Payload& payload,
                                            Shim& target,
                                            TransferTiming* timing) {
  RR_ASSIGN_OR_RETURN(const MemoryRegion delivered,
                      Forward(payload, target, timing));
  MutexLock shim_lock(target.exec_mutex());
  // A successful invoke consumes the input region; a failed one leaves it
  // allocated in the target's sandbox — the guard reclaims it.
  RegionGuard guard(&target, delivered);
  auto outcome = target.InvokeOnRegion(delivered);
  if (outcome.ok()) guard.Dismiss();
  return outcome;
}

Status Hop::DispatchAsync(const Payload& /*payload*/, uint64_t /*token*/,
                          TransferTiming* /*timing*/,
                          DispatchDoneFn /*done*/) {
  return FailedPreconditionError(
      "hop is not invoke-coupled; use Forward/ForwardAndInvoke");
}

std::unique_ptr<Transport> MakeUserSpaceTransport() {
  return std::make_unique<UserSpaceTransport>();
}
std::unique_ptr<Transport> MakeKernelTransport() {
  return std::make_unique<KernelTransport>();
}
std::unique_ptr<Transport> MakeNetworkTransport() {
  return std::make_unique<NetworkTransport>();
}

}  // namespace rr::core
