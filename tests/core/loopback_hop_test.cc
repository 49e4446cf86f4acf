// The loopback network hop, established through MakeNetworkTransport() on a
// target without an agent port: the same single-thread frame pump as the
// kernel hop, over a connected loopback TCP pair. A placement failure leaves
// the cached wire in sync, a closed hop fails typed, every frame is timed and
// counted on the rr_wire_* series, and no path leaks a guest region.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/network_channel.h"
#include "core/payload.h"
#include "core/transport.h"
#include "obs/metrics.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

std::unique_ptr<Shim> MakeShim(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  auto shim = Shim::Create(spec, Binary());
  EXPECT_TRUE(shim.ok()) << shim.status();
  return shim.ok() ? std::move(*shim) : nullptr;
}

// A guest-resident payload: `data` staged as `shim`'s registered output.
Payload GuestPayload(Shim& shim, ByteSpan data) {
  auto address = shim.data().allocate_memory(
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size())));
  EXPECT_TRUE(address.ok()) << address.status();
  EXPECT_TRUE(shim.data().write_memory_host(data, *address).ok());
  return Payload::FromGuest(
      &shim, MemoryRegion{*address, static_cast<uint32_t>(data.size())});
}

Bytes RandomBytes(size_t size, uint64_t seed) {
  Bytes bytes(size);
  Rng rng(seed);
  rng.Fill(bytes);
  return bytes;
}

uint64_t CounterValue(const char* name, obs::Labels labels = {}) {
  return obs::Registry::Get().counter(name, "", std::move(labels))->Value();
}

uint64_t KernelBytes(const char* direction) {
  return CounterValue("rr_channel_bytes_total",
                      {{"mode", "kernel"}, {"direction", direction}});
}

class NetworkLoopbackHopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = MakeShim("src");
    target_ = MakeShim("dst");
    ASSERT_NE(source_, nullptr);
    ASSERT_NE(target_, nullptr);
    Endpoint source_endpoint;
    source_endpoint.shim = source_.get();
    source_endpoint.location = {"n1", ""};
    Endpoint target_endpoint;
    target_endpoint.shim = target_.get();
    target_endpoint.location = {"n2", ""};
    ASSERT_EQ(target_endpoint.port, 0) << "no agent: the hop is loopback";
    auto hop = MakeNetworkTransport()->Connect(source_endpoint, target_endpoint,
                                               TransportOptions{});
    ASSERT_TRUE(hop.ok()) << hop.status();
    hop_ = std::move(*hop);
    ASSERT_EQ(hop_->mode(), TransferMode::kNetwork);
    ASSERT_FALSE(hop_->invoke_coupled());
  }

  // The delivered bytes, read back out of the target's linear memory.
  Bytes Delivered(const MemoryRegion& region) {
    auto view = target_->OutputView(region);
    EXPECT_TRUE(view.ok()) << view.status();
    return view.ok() ? Bytes(view->begin(), view->end()) : Bytes{};
  }

  std::unique_ptr<Shim> source_;
  std::unique_ptr<Shim> target_;
  std::unique_ptr<Hop> hop_;
};

TEST_F(NetworkLoopbackHopTest, PlacementFailureLeavesHopUsable) {
  const size_t source_regions = source_->data().registered_region_count();
  const size_t target_regions = target_->data().registered_region_count();
  auto slice = target_->PrepareInput(100);
  ASSERT_TRUE(slice.ok()) << slice.status();

  // A 4 KiB frame aimed at a 100-byte fan-in slice: placement fails before
  // a byte reaches the socket.
  Payload oversized = GuestPayload(*source_, RandomBytes(4096, 1));
  auto failed = hop_->Forward(oversized, *target_, nullptr, &*slice);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal) << failed.status();
  EXPECT_TRUE(hop_->healthy());

  // The next frame on the same hop is read in sync, not as a stale body.
  const Bytes small = RandomBytes(64, 2);
  Payload next = GuestPayload(*source_, small);
  auto delivered = hop_->Forward(next, *target_);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(Delivered(*delivered), small);
  EXPECT_TRUE(hop_->healthy());

  // The payloads kept their regions through the hop; their handles release
  // them. Nothing else stayed allocated on either side.
  EXPECT_TRUE(oversized.guest_resident());
  EXPECT_TRUE(next.guest_resident());
  oversized.Reset();
  next.Reset();
  ASSERT_TRUE(target_->ReleaseRegion(*delivered).ok());
  ASSERT_TRUE(target_->ReleaseRegion(*slice).ok());
  EXPECT_EQ(source_->data().registered_region_count(), source_regions);
  EXPECT_EQ(target_->data().registered_region_count(), target_regions);
}

TEST_F(NetworkLoopbackHopTest, HostResidentPayloadLandsInFanInSlice) {
  // A segmented host-resident payload gathers over its chunks straight into
  // a caller-owned slice; the slice is never released by the hop.
  auto gather = target_->PrepareInput(16);
  ASSERT_TRUE(gather.ok()) << gather.status();
  ASSERT_TRUE(target_->data().write_memory_host(AsBytes("................"),
                                                gather->address)
                  .ok());
  rr::Buffer chunks = rr::Buffer::FromString("alpha|");
  chunks.AppendCopy(AsBytes("beta"));
  const MemoryRegion slice{gather->address + 3, 10};
  auto delivered = hop_->Forward(Payload(chunks), *target_, nullptr, &slice);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(delivered->address, slice.address);
  EXPECT_EQ(ToString(Delivered(*gather)), "...alpha|beta...");
  EXPECT_TRUE(target_->data().IsRegistered(gather->address, gather->length));
}

TEST_F(NetworkLoopbackHopTest, ForwardTimesTransferAndCountsWireBytes) {
  const uint64_t sent_before = CounterValue("rr_wire_bytes_sent_total");
  const uint64_t received_before = CounterValue("rr_wire_bytes_received_total");
  const uint64_t frames_before = CounterValue("rr_wire_frames_sent_total");
  const uint64_t kernel_sent_before = KernelBytes("sent");
  const uint64_t kernel_received_before = KernelBytes("received");
  // More than a loopback socket buffer holds: the pump must interleave.
  const Bytes body = RandomBytes(4 * 1024 * 1024, 3);
  const Payload payload = GuestPayload(*source_, body);
  const uint64_t copied_before = rr::Buffer::TotalBytesCopied();
  TransferTiming timing;
  auto delivered = hop_->Forward(payload, *target_, &timing);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(rr::Buffer::TotalBytesCopied(), copied_before)
      << "the hop staged the payload on the host";
  EXPECT_EQ(Delivered(*delivered), body);
  EXPECT_GT(timing.transfer.count(), 0);
  EXPECT_EQ(timing.wasm_io.count(), 0) << "no staging copy on the hop";
  EXPECT_EQ(CounterValue("rr_wire_bytes_sent_total") - sent_before,
            body.size());
  EXPECT_EQ(CounterValue("rr_wire_bytes_received_total") - received_before,
            body.size());
  EXPECT_EQ(CounterValue("rr_wire_frames_sent_total") - frames_before, 1u);
  EXPECT_EQ(KernelBytes("sent"), kernel_sent_before);
  EXPECT_EQ(KernelBytes("received"), kernel_received_before);
}

TEST_F(NetworkLoopbackHopTest, ClosedHopFailsTypedAndLeaksNoRegion) {
  const size_t target_regions = target_->data().registered_region_count();
  hop_->Close();
  EXPECT_FALSE(hop_->healthy());
  auto failed =
      hop_->Forward(Payload(rr::Buffer::FromString("late")), *target_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
      << failed.status();
  EXPECT_EQ(target_->data().registered_region_count(), target_regions);
}

// The pump counts its failures on the series its transport chose: an idle
// bound that expires is a deadline expiry, and any failed transfer kills the
// channel.
TEST(FramePumpTest, FailuresCountOnWireSeries) {
  const uint64_t expiries_before =
      CounterValue("rr_wire_deadline_expiries_total");
  const uint64_t kills_before = CounterValue("rr_wire_channel_kills_total");
  const uint64_t sent_before = CounterValue("rr_wire_bytes_sent_total");

  // Ends of two different pairs: the frame leaves but never arrives.
  auto first = osal::ConnectedPair();
  auto second = osal::ConnectedPair();
  ASSERT_TRUE(first.ok() && second.ok());
  auto stranded = FramePump::Create(std::move(first->first),
                                    std::move(second->first),
                                    NetworkPumpCounters());
  ASSERT_TRUE(stranded.ok()) << stranded.status();
  const Bytes body = RandomBytes(64, 4);
  Bytes dest(body.size());
  const Status expired = stranded->Transfer(
      rr::BufferView(ByteSpan(body)), dest, std::chrono::milliseconds(20));
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded) << expired;
  EXPECT_EQ(CounterValue("rr_wire_deadline_expiries_total") - expiries_before,
            1u);
  EXPECT_EQ(CounterValue("rr_wire_channel_kills_total") - kills_before, 1u);

  auto pair = osal::ConnectedPair();
  ASSERT_TRUE(pair.ok());
  auto pump = FramePump::Create(std::move(pair->first), std::move(pair->second),
                                NetworkPumpCounters());
  ASSERT_TRUE(pump.ok()) << pump.status();
  pump->Shutdown();
  const Status dead = pump->Transfer(rr::BufferView(ByteSpan(body)), dest,
                                     std::chrono::milliseconds(20));
  EXPECT_FALSE(dead.ok());
  EXPECT_NE(dead.code(), StatusCode::kDeadlineExceeded) << dead;
  EXPECT_EQ(CounterValue("rr_wire_deadline_expiries_total") - expiries_before,
            1u);
  EXPECT_EQ(CounterValue("rr_wire_channel_kills_total") - kills_before, 2u);
  EXPECT_EQ(CounterValue("rr_wire_bytes_sent_total"), sent_before)
      << "failed frames are not counted as sent";
}

}  // namespace
}  // namespace rr::core
