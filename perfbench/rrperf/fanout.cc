// fanout-8x1m: Runtime::Submit of split -> {w0..w7} -> join at 1 MiB, one
// closed-loop submitter. The workers sit behind one in-process NodeAgent on
// the mux wire (registered with Runtime::DeliverySink), so split's output
// reaches them as 64 KiB mux chunks under per-stream flow control, and the
// fan-out shares one buffer across the eight dispatches. split and join are
// local; join has no agent ingress, so the fan-in gathers the eight worker
// outputs into one region of join's memory over loopback NetworkChannel
// hops. No gateway, no kernel-space hop.
#include "dag/dag.h"
#include "harness.h"
#include "workload/payload.h"

namespace rrperf {
namespace {

using rr::Bytes;
using rr::ByteSpan;
using rr::Result;

constexpr size_t kBodyBytes = size_t{1} << 20;
constexpr size_t kWorkers = 8;
constexpr size_t kInputs = 8;
constexpr uint8_t kSplitKey = 0x5a;

uint8_t WorkerKey(size_t i) { return static_cast<uint8_t>(0x21 + 7 * i); }

struct Inputs {
  std::vector<rr::Buffer> bodies;
  std::vector<uint64_t> digests;  // of join's expected input
  // Generation scratch, kept for the whole run: freeing a block of this size
  // would raise glibc's dynamic mmap threshold and so change how the system
  // under test allocates its own megabyte-sized payload buffers.
  std::vector<std::string> text;
  Bytes joined;
};

class FanoutDeployment : public Deployment {
 public:
  explicit FanoutDeployment(const Inputs* inputs) : inputs_(inputs) {}

  ~FanoutDeployment() override {
    // The agent delivers into the runtime's sink: stop it first.
    if (agent_ != nullptr) agent_->Shutdown();
    agent_.reset();
    runtime_.reset();
  }

  rr::Status Start() {
    runtime_ = std::make_unique<rr::api::Runtime>("perfbench-fanout");
    RR_ASSIGN_OR_RETURN(agent_, rr::core::NodeAgent::Start(0));
    RR_RETURN_IF_ERROR(Add("split", XorHandler(kSplitKey), {"node-1", ""}, 0));
    std::vector<std::string> workers;
    for (size_t i = 0; i < kWorkers; ++i) {
      workers.push_back("w" + std::to_string(i));
      RR_RETURN_IF_ERROR(Add(workers.back(), XorHandler(WorkerKey(i)),
                             {"node-2", ""}, agent_->port()));
      RR_RETURN_IF_ERROR(
          agent_->RegisterFunction(pools_.back(), runtime_->DeliverySink()));
    }
    RR_RETURN_IF_ERROR(Add("join", DigestHandler, {"node-1", ""}, 0));
    RR_ASSIGN_OR_RETURN(rr::dag::Dag dag, rr::dag::DagBuilder("fanout-8x1m")
                                              .AddNode("split")
                                              .FanOut("split", workers)
                                              .FanIn(workers, "join")
                                              .Build());
    spec_ = rr::api::DagSpec{std::move(dag), std::nullopt};
    return rr::Status::Ok();
  }

  rr::api::Runtime& runtime() override { return *runtime_; }

  Result<std::shared_ptr<rr::api::Invocation>> Submit(size_t i) override {
    return runtime_->Submit(*spec_, inputs_->bodies[i % kInputs]);
  }

  bool Check(size_t i, const rr::Buffer& output) const override {
    return IsDigest(output, inputs_->digests[i % kInputs]);
  }

  EdgeClass Classify(const rr::telemetry::EdgeSample& edge) const override {
    if (edge.mode == "user-space") return EdgeClass::kUser;
    if (edge.mode == "kernel-space") return EdgeClass::kKernel;
    // Workers are the only functions behind the agent's mux ingress.
    return edge.target == "join" ? EdgeClass::kHose : EdgeClass::kMux;
  }

  std::vector<std::shared_ptr<rr::core::ShimPool>> pools() const override {
    return pools_;
  }
  const rr::core::NodeAgent* agent() const override { return agent_.get(); }

 private:
  rr::Status Add(const std::string& name, rr::runtime::NativeHandler handler,
                 rr::core::Location location, uint16_t port) {
    rr::runtime::FunctionSpec spec;
    spec.name = name;
    spec.workflow = "perfbench-fanout";
    rr::runtime::PoolOptions pool_options;
    pool_options.min_warm = 2;
    pool_options.max_instances = 2;
    const rr::Bytes binary = rr::runtime::BuildFunctionModuleBinary();
    RR_ASSIGN_OR_RETURN(
        auto pool, rr::core::ShimPool::Create(spec, binary, {}, pool_options));
    RR_RETURN_IF_ERROR(pool->Deploy(std::move(handler)));
    rr::core::Endpoint endpoint;
    endpoint.pool = pool;
    endpoint.location = std::move(location);
    endpoint.port = port;
    RR_RETURN_IF_ERROR(runtime_->Register(endpoint));
    pools_.push_back(std::move(pool));
    return rr::Status::Ok();
  }

  const Inputs* inputs_;
  std::vector<std::shared_ptr<rr::core::ShimPool>> pools_;
  std::unique_ptr<rr::api::Runtime> runtime_;
  std::unique_ptr<rr::core::NodeAgent> agent_;
  std::optional<rr::api::DagSpec> spec_;
};

}  // namespace

int RunFanout(const Args& args) {
  Inputs inputs;
  inputs.joined.resize(kBodyBytes * kWorkers);
  for (size_t i = 0; i < kInputs; ++i) {
    const std::string& body = inputs.text.emplace_back(
        rr::workload::MakeBody(kBodyBytes, args.seed * kInputs + i));
    for (size_t w = 0; w < kWorkers; ++w) {
      const uint8_t key = kSplitKey ^ WorkerKey(w);
      for (size_t j = 0; j < kBodyBytes; ++j) {
        inputs.joined[w * kBodyBytes + j] = static_cast<uint8_t>(body[j]) ^ key;
      }
    }
    inputs.digests.push_back(rr::workload::BodyChecksum(inputs.joined));
    inputs.bodies.push_back(rr::Buffer::Adopt(Bytes(body.begin(), body.end())));
  }
  ClosedLoopWorkload workload;
  workload.setup = [&inputs]() -> Result<std::unique_ptr<Deployment>> {
    auto d = std::make_unique<FanoutDeployment>(&inputs);
    RR_RETURN_IF_ERROR(d->Start());
    return std::unique_ptr<Deployment>(std::move(d));
  };
  // split (the source) and join (invoked after its gather) sit outside every
  // EdgeSample; a mux edge's latency already includes the worker's invoke.
  workload.uncovered_invokes = 2;
  workload.probe_invoke_us = [&inputs] {
    return ProbeInvokeUs(XorHandler(kSplitKey), inputs.bodies[0], 50);
  };
  workload.warmup_runs = 10;
  return RunClosedLoop(args, workload);
}

}  // namespace rrperf
