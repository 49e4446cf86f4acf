// Runs as continuations: Submit starts a run and returns, the DAG pool
// drives it, and the worker that retires its last node publishes the result.
// No thread is parked per run, so in-flight runs with remote nodes cost
// memory, not threads; the runtime's destructor still drains every run; and
// NotifyDone fires exactly once whether the run is in flight or finished.
#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "obs/metrics.h"
#include "runtime/function.h"

namespace rr::api {
namespace {

using core::Endpoint;
using core::ShimPool;

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

runtime::NativeHandler Tagger(const std::string& tag) {
  return [tag](ByteSpan input) -> Result<Bytes> {
    std::string out(AsStringView(input));
    out += "|" + tag;
    return ToBytes(out);
  };
}

std::shared_ptr<ShimPool> MakePool(const std::string& name, size_t instances,
                                   runtime::NativeHandler handler) {
  runtime::PoolOptions options;
  options.min_warm = instances;
  options.max_instances = instances;
  auto pool = ShimPool::Create(Spec(name), Binary(), {}, options);
  EXPECT_TRUE(pool.ok()) << pool.status();
  if (!pool.ok()) return nullptr;
  EXPECT_TRUE((*pool)->Deploy(std::move(handler)).ok());
  return *pool;
}

void RegisterPool(Runtime& rt, const std::shared_ptr<ShimPool>& pool,
                  core::Location location, uint16_t port = 0) {
  Endpoint endpoint;
  endpoint.pool = pool;
  endpoint.location = std::move(location);
  endpoint.port = port;
  EXPECT_TRUE(rt.Register(endpoint).ok());
}

// Kernel truth for the thread count: entries in /proc/self/task.
size_t CountThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

// Holds every handler that enters it until Open().
class Gate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
};

TEST(RunContinuationTest, ThousandRemoteRunsInFlightAtFlatThreadCount) {
  // The gated-pool method of bench/agent_scale.cc, through the runtime: the
  // remote handler parks the agent's invoke workers, so every run's remote
  // node stays deferred. All 1,000 runs must reach the agent at once, with
  // no thread added for any of them.
  constexpr size_t kRuns = 1000;
  constexpr size_t kInvokeWorkers = 2;
  auto gate = std::make_shared<Gate>();
  auto local = MakePool("local", 2, Tagger("local"));
  auto remote = MakePool(
      "remote", kInvokeWorkers, [gate](ByteSpan input) -> Result<Bytes> {
        gate->Pass();
        std::string out(AsStringView(input));
        out += "|remote";
        return ToBytes(out);
      });
  ASSERT_NE(local, nullptr);
  ASSERT_NE(remote, nullptr);

  core::NodeAgent::Options agent_options;
  agent_options.shards = 1;
  agent_options.invoke_workers = kInvokeWorkers;
  auto agent = core::NodeAgent::Start(0, agent_options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  {
    Runtime::Options options;
    options.dag_workers = 2;
    Runtime rt("wf", options);
    RegisterPool(rt, local, {"n1", ""});
    RegisterPool(rt, remote, {"n2", ""}, (*agent)->port());
    ASSERT_TRUE((*agent)->RegisterFunction(remote, rt.DeliverySink()).ok());

    // Warm-up: establishes the hop, the mux client's connection and the
    // executor's sweeper, so the baseline counts every thread a run uses.
    const ChainSpec chain{{"local", "remote"}};
    auto warm = rt.Submit(chain, AsBytes("warm"));
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_TRUE((*warm)->Wait().ok()) << (*warm)->Wait().status();
    const size_t threads_before = CountThreads();

    gate->Close();
    std::vector<std::shared_ptr<Invocation>> invocations;
    invocations.reserve(kRuns);
    for (size_t i = 0; i < kRuns; ++i) {
      auto invocation = rt.Submit(chain, AsBytes("r" + std::to_string(i)));
      ASSERT_TRUE(invocation.ok()) << invocation.status();
      invocations.push_back(std::move(*invocation));
    }

    // Top of the ramp: every run submitted, the gate holds every remote
    // invoke. Wait (bounded) for the streams to reach the agent.
    obs::Gauge* streams =
        obs::Registry::Get().gauge("rr_agent_streams_in_flight");
    ASSERT_NE(streams, nullptr);
    for (int attempt = 0; attempt < 1000 && streams->Value() < 990;
         ++attempt) {
      PreciseSleep(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(rt.in_flight(), kRuns);
    EXPECT_GE(streams->Value(), 990);
    EXPECT_EQ(CountThreads(), threads_before);

    gate->Open();
    for (size_t i = 0; i < kRuns; ++i) {
      const Result<rr::Buffer>& result = invocations[i]->Wait();
      ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
      EXPECT_EQ(ToString(*result), "r" + std::to_string(i) + "|local|remote");
    }
    EXPECT_EQ(rt.in_flight(), 0u);
  }
  (*agent)->Shutdown();
}

TEST(RunContinuationTest, DestructorDrainsInFlightRuns) {
  // The runtime is destroyed straight after the burst: no run may be
  // abandoned, and every handle still yields its own output.
  constexpr size_t kRuns = 64;
  auto a = MakePool("a", 2, Tagger("a"));
  auto b = MakePool("b", 2, Tagger("b"));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::vector<std::shared_ptr<Invocation>> invocations;
  {
    Runtime rt("wf");
    RegisterPool(rt, a, {"n1", ""});
    RegisterPool(rt, b, {"n1", ""});
    for (size_t i = 0; i < kRuns; ++i) {
      auto invocation =
          rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("d" + std::to_string(i)));
      ASSERT_TRUE(invocation.ok()) << invocation.status();
      invocations.push_back(std::move(*invocation));
    }
  }
  for (size_t i = 0; i < kRuns; ++i) {
    ASSERT_TRUE(invocations[i]->Done()) << "run " << i;
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    EXPECT_EQ(ToString(*result), "d" + std::to_string(i) + "|a|b");
  }
}

TEST(RunContinuationTest, NotifyDoneFiresExactlyOnce) {
  auto gate = std::make_shared<Gate>();
  auto slow = MakePool("slow", 1, [gate](ByteSpan input) -> Result<Bytes> {
    gate->Pass();
    return Bytes(input.begin(), input.end());
  });
  ASSERT_NE(slow, nullptr);
  const std::thread::id caller = std::this_thread::get_id();

  std::atomic<int> in_flight_calls{0};
  std::atomic<bool> in_flight_saw_done{false};
  std::atomic<bool> in_flight_on_caller{false};
  std::atomic<int> finished_calls{0};
  {
    Runtime rt("wf");
    RegisterPool(rt, slow, {"n1", ""});

    // Registered while the run is held in flight: fires once, on the pool
    // worker that finishes the run, with the result already published.
    gate->Close();
    auto running = rt.Submit(ChainSpec{{"slow"}}, AsBytes("held"));
    ASSERT_TRUE(running.ok()) << running.status();
    Invocation* held = running->get();
    held->NotifyDone([&, held] {
      in_flight_calls.fetch_add(1);
      in_flight_saw_done.store(held->Done());
      in_flight_on_caller.store(std::this_thread::get_id() == caller);
    });
    EXPECT_EQ(in_flight_calls.load(), 0);
    gate->Open();
    ASSERT_TRUE((*running)->Wait().ok()) << (*running)->Wait().status();

    // Registered after the run finished: fires once, inline.
    auto done = rt.Submit(ChainSpec{{"slow"}}, AsBytes("done"));
    ASSERT_TRUE(done.ok()) << done.status();
    ASSERT_TRUE((*done)->Wait().ok()) << (*done)->Wait().status();
    (*done)->NotifyDone([&] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      finished_calls.fetch_add(1);
    });
    EXPECT_EQ(finished_calls.load(), 1);
  }
  // The runtime is gone, so its pool has finished every callback it owed.
  EXPECT_EQ(in_flight_calls.load(), 1);
  EXPECT_TRUE(in_flight_saw_done.load());
  EXPECT_FALSE(in_flight_on_caller.load());
  EXPECT_EQ(finished_calls.load(), 1);
}

}  // namespace
}  // namespace rr::api
