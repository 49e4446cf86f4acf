// bulk-64m: Runtime::Submit of produce -> consume at 64 MiB, one closed-loop
// submitter. Both functions own dedicated sandboxes on one node, so the
// edge is kernel-space: per-byte costs (the kernel hop, the shim staging
// copies, page faults on fresh buffers) dominate the run.
#include "harness.h"
#include "workload/payload.h"

namespace rrperf {
namespace {

using rr::Bytes;
using rr::ByteSpan;
using rr::Result;

constexpr size_t kBodyBytes = size_t{64} << 20;
constexpr size_t kInputs = 2;

Result<Bytes> Produce(ByteSpan input) {
  return Bytes(input.begin(), input.end());
}

struct Inputs {
  std::vector<rr::Buffer> bodies;
  std::vector<uint64_t> digests;
};

class BulkDeployment : public Deployment {
 public:
  explicit BulkDeployment(const Inputs* inputs)
      : inputs_(inputs), runtime_("perfbench-bulk") {}

  rr::Status Start() {
    const Bytes binary = rr::runtime::BuildFunctionModuleBinary();
    using Function = std::pair<std::string, rr::runtime::NativeHandler>;
    for (const auto& [name, handler] :
         {Function{"produce", Produce}, Function{"consume", DigestHandler}}) {
      rr::runtime::FunctionSpec spec;
      spec.name = name;
      spec.workflow = "perfbench-bulk";
      RR_ASSIGN_OR_RETURN(auto pool, rr::core::ShimPool::Create(spec, binary));
      RR_RETURN_IF_ERROR(pool->Deploy(handler));
      rr::core::Endpoint endpoint;
      endpoint.pool = pool;
      endpoint.location = {"node-1", ""};
      RR_RETURN_IF_ERROR(runtime_.Register(endpoint));
      pools_.push_back(std::move(pool));
    }
    return rr::Status::Ok();
  }

  rr::api::Runtime& runtime() override { return runtime_; }

  Result<std::shared_ptr<rr::api::Invocation>> Submit(size_t i) override {
    return runtime_.Submit(rr::api::ChainSpec{{"produce", "consume"}},
                           inputs_->bodies[i % kInputs]);
  }

  bool Check(size_t i, const rr::Buffer& output) const override {
    return IsDigest(output, inputs_->digests[i % kInputs]);
  }

  EdgeClass Classify(const rr::telemetry::EdgeSample& edge) const override {
    return edge.mode == "user-space" ? EdgeClass::kUser : EdgeClass::kKernel;
  }

  std::vector<std::shared_ptr<rr::core::ShimPool>> pools() const override {
    return pools_;
  }

 private:
  const Inputs* inputs_;
  std::vector<std::shared_ptr<rr::core::ShimPool>> pools_;
  rr::api::Runtime runtime_;  // declared last: drains before pools go
};

}  // namespace

int RunBulk(const Args& args) {
  Inputs inputs;
  for (size_t i = 0; i < kInputs; ++i) {
    const std::string body =
        rr::workload::MakeBody(kBodyBytes, args.seed * kInputs + i);
    inputs.digests.push_back(rr::workload::BodyChecksum(rr::AsBytes(body)));
    inputs.bodies.push_back(rr::Buffer::Adopt(rr::ToBytes(body)));
  }
  ClosedLoopWorkload workload;
  workload.setup = [&inputs]() -> Result<std::unique_ptr<Deployment>> {
    auto d = std::make_unique<BulkDeployment>(&inputs);
    RR_RETURN_IF_ERROR(d->Start());
    return std::unique_ptr<Deployment>(std::move(d));
  };
  // produce is the chain's source and consume's invoke follows the kernel
  // edge's delivery; neither is inside an EdgeSample.
  workload.uncovered_invokes = 2;
  workload.probe_invoke_us = [&inputs] {
    return ProbeInvokeUs(Produce, inputs.bodies[0], 5);
  };
  workload.warmup_runs = 1;
  return RunClosedLoop(args, workload);
}

}  // namespace rrperf
