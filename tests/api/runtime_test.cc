// api::Runtime tests: the unified async invocation façade — concurrent
// chain/DAG submissions over the shared hop cache, validation at Submit,
// per-run stats, and remote (NodeAgent) targets under concurrency.
#include "api/runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/node_agent.h"
#include "dag/dag.h"
#include "runtime/function.h"

namespace rr::api {
namespace {

using core::Endpoint;
using core::Location;
using core::Shim;

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

class RuntimeTest : public ::testing::Test {
 protected:
  static runtime::NativeHandler Tagger(const std::string& tag) {
    return [tag](ByteSpan input) -> Result<Bytes> {
      std::string out(AsStringView(input));
      out += "|" + tag;
      return ToBytes(out);
    };
  }

  std::unique_ptr<Shim> AddFunction(Runtime& rt, const std::string& name,
                                    Location location,
                                    runtime::WasmVm* vm = nullptr,
                                    uint16_t port = 0) {
    auto shim = vm ? Shim::CreateInVm(*vm, Spec(name), Binary())
                   : Shim::Create(Spec(name), Binary());
    EXPECT_TRUE(shim.ok()) << shim.status();
    EXPECT_TRUE((*shim)->Deploy(Tagger(name)).ok());
    Endpoint endpoint;
    endpoint.shim = shim->get();
    endpoint.location = std::move(location);
    endpoint.port = port;
    EXPECT_TRUE(rt.Register(endpoint).ok());
    return std::move(*shim);
  }
};

TEST_F(RuntimeTest, SubmitChainReturnsHandleAndResult) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);

  auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("in"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "in|a|b");
  EXPECT_TRUE((*invocation)->Done());
  // Wait after completion returns the same stored result.
  EXPECT_EQ(ToString(*(*invocation)->Wait()), "in|a|b");
  // Callers that need contiguous bytes materialize the buffer themselves.
  const Bytes bytes = (*invocation)->Wait()->ToBytes();
  EXPECT_EQ(ToString(bytes), "in|a|b");
}

TEST_F(RuntimeTest, SubmitValidatesBeforeExecution) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);

  // Unknown function: rejected at Submit, not at Wait.
  auto unknown = rt.Submit(ChainSpec{{"a", "ghost"}}, AsBytes("x"));
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Malformed shape: an empty chain never reaches the executor either.
  auto empty = rt.Submit(ChainSpec{{}}, AsBytes("x"));
  EXPECT_FALSE(empty.ok());
}

TEST_F(RuntimeTest, ManyChainInvocationsInFlightConcurrently) {
  constexpr size_t kInFlight = 16;
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", ""});  // kernel hop shared by all runs

  const ChainSpec chain{{"a", "b", "c"}};
  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation =
        rt.Submit(chain, AsBytes("req-" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }

  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    EXPECT_EQ(ToString(*result), "req-" + std::to_string(i) + "|a|b|c");
  }
  EXPECT_EQ(a->invocations(), kInFlight);
  EXPECT_EQ(c->invocations(), kInFlight);
  // Every run reused the same cached hops: one per chain edge, no races that
  // tear down and re-establish channels.
  EXPECT_EQ(rt.manager().hops().size(), 2u);
  EXPECT_EQ(rt.in_flight(), 0u);
}

TEST_F(RuntimeTest, ManyDagInvocationsInFlightConcurrently) {
  constexpr size_t kInFlight = 8;
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm);
  auto d = AddFunction(rt, "d", {"n1", ""});

  auto dag = dag::DagBuilder("diamond")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .FanIn({"b", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  const DagSpec spec{*dag};

  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation = rt.Submit(spec, AsBytes("d" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    const std::string in = "d" + std::to_string(i);
    EXPECT_EQ(ToString(*result), in + "|a|b" + in + "|a|c|d");
  }
  EXPECT_EQ(a->invocations(), kInFlight);
  EXPECT_EQ(d->invocations(), kInFlight);
}

TEST_F(RuntimeTest, MixedChainAndDagSubmissionsInterleave) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm);

  auto dag = dag::DagBuilder("fan")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  std::vector<std::shared_ptr<Invocation>> invocations;
  for (int i = 0; i < 12; ++i) {
    auto invocation =
        (i % 2 == 0)
            ? rt.Submit(DagSpec{*dag}, AsBytes("f" + std::to_string(i)))
            : rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("f" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (int i = 0; i < 12; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    const std::string in = "f" + std::to_string(i);
    EXPECT_EQ(ToString(*result),
              i % 2 == 0 ? in + "|a|b" + in + "|a|c" : in + "|a|b");
  }
}

TEST_F(RuntimeTest, StatsAccountQueueingAndExecution) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);

  auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("s"));
  ASSERT_TRUE(invocation.ok());
  ASSERT_TRUE((*invocation)->Wait().ok());
  const RunStats& stats = (*invocation)->stats();
  EXPECT_GE(stats.queued.count(), 0);
  EXPECT_GT(stats.total.count(), 0);
  ASSERT_EQ(stats.dag.edges.size(), 1u);  // the one a->b transfer
  EXPECT_EQ(stats.dag.edges[0].mode, "user-space");
}

TEST_F(RuntimeTest, WaitForTimesOutWhileInFlightThenCompletes) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);

  auto invocation = rt.Submit(ChainSpec{{"a"}}, AsBytes("t"));
  ASSERT_TRUE(invocation.ok());
  // A zero-timeout WaitFor cannot block; whatever it reports, the full Wait
  // must complete with the run's result.
  (void)(*invocation)->WaitFor(Nanos{0});
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "t|a");
}

TEST_F(RuntimeTest, RemoteAgentTargetsUnderConcurrency) {
  // Functions behind a NodeAgent ingress: eight runs in flight dispatch
  // token-stamped frames over one shared invoke-coupled hop; the delivery
  // sink routes each completion back to exactly its own run.
  constexpr size_t kInFlight = 8;
  Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});

  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = AddFunction(rt, "b", {"n2", ""}, nullptr, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  const ChainSpec chain{{"a", "b"}};
  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation = rt.Submit(chain, AsBytes("r" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    EXPECT_EQ(ToString(*result), "r" + std::to_string(i) + "|a|b");
  }
  EXPECT_EQ((*agent)->transfers_completed(), kInFlight);
  (*agent)->Shutdown();
}

TEST_F(RuntimeTest, ConcurrentRemoteTimeoutsEvictSafely) {
  // Every run targets a function the agent never registered, so every
  // delivery times out and every run races to Evict the shared hop while
  // the others still hold it. The hops are shared-owned and eviction only
  // shuts the wire down, so each run must fail cleanly (deadline or the
  // closed channel) — never crash or hang.
  constexpr size_t kInFlight = 8;
  Runtime::Options options;
  options.remote_deadline = std::chrono::milliseconds(200);
  Runtime rt("wf", options);
  auto a = AddFunction(rt, "a", {"n1", ""});

  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = AddFunction(rt, "b", {"n2", ""}, nullptr, (*agent)->port());
  // "b" is intentionally NOT registered with the agent.

  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("x"));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    EXPECT_FALSE(result.ok()) << "run " << i;
  }
  (*agent)->Shutdown();
}

TEST_F(RuntimeTest, DestructionDrainsSubmittedInvocations) {
  runtime::WasmVm vm("wf");
  std::vector<std::shared_ptr<Invocation>> invocations;
  std::unique_ptr<Shim> a, b;
  {
    Runtime rt("wf");
    a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
    b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
    for (int i = 0; i < 6; ++i) {
      auto invocation =
          rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("x" + std::to_string(i)));
      ASSERT_TRUE(invocation.ok());
      invocations.push_back(std::move(*invocation));
    }
    // Runtime destroyed here: it must drain, not abandon, the queue.
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(invocations[i]->Done());
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(ToString(*result), "x" + std::to_string(i) + "|a|b");
  }
}

TEST_F(RuntimeTest, UnregisterEvictsEndpointFromRegistry) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);

  ASSERT_TRUE((*rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("1")))->Wait().ok());
  ASSERT_TRUE(rt.Unregister("b").ok());
  auto rejected = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("2"));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace rr::api
