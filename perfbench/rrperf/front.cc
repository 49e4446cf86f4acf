// front-4k: HTTP POST of a 4 KiB body to a gateway route behind the
// request-id, body-limit and admission interceptors. The route is the chain
// parse -> enrich -> score: parse and enrich are modules of one Wasm VM
// (user-space edge), score has its own sandbox on the same node
// (kernel-space edge). Load is an open loop at a fixed rate over keep-alive
// connections, one generator thread per connection; each request is timed
// from the moment it was due, so a stall also charges the requests it
// delays.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "gateway/gateway.h"
#include "gateway/interceptor.h"
#include "harness.h"
#include "http/http.h"
#include "http/parser.h"
#include "obs/trace.h"
#include "osal/socket.h"
#include "workload/payload.h"

namespace rrperf {
namespace {

using rr::Bytes;
using rr::ByteSpan;
using rr::Nanos;
using rr::Now;
using rr::Result;
using rr::TimePoint;

constexpr size_t kBodyBytes = 4096;
constexpr size_t kInputs = 64;
constexpr double kRatePerSecond = 1000;
constexpr size_t kConnections = 4;  // one generator thread each
constexpr const char* kRoute = "front";
constexpr auto kWarmup = std::chrono::milliseconds(300);
const std::vector<std::string> kChain = {"parse", "enrich", "score"};
// Per-function XOR keys, in kChain order.
constexpr uint8_t kKeys[] = {0x3c, 0x66, 0x0f};

struct Inputs {
  std::vector<Bytes> requests;  // encoded HTTP requests
  std::vector<rr::Buffer> bodies;
  std::vector<Bytes> expected;  // response bodies
};

Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  const uint8_t key = kKeys[0] ^ kKeys[1] ^ kKeys[2];
  for (size_t i = 0; i < kInputs; ++i) {
    rr::http::Request request;
    request.method = "POST";
    request.target = std::string("/v1/invoke/") + kRoute;
    request.headers["Host"] = "127.0.0.1";
    request.body =
        rr::ToBytes(rr::workload::MakeBody(kBodyBytes, seed * kInputs + i));
    Bytes expected = request.body;
    for (uint8_t& byte : expected) byte ^= key;
    inputs.bodies.push_back(rr::Buffer::Adopt(Bytes(request.body)));
    inputs.requests.push_back(rr::http::EncodeRequest(request));
    inputs.expected.push_back(std::move(expected));
  }
  return inputs;
}

class FrontDeployment {
 public:
  ~FrontDeployment() {
    if (gateway_ != nullptr) gateway_->Stop();
    gateway_.reset();
    runtime_.reset();  // drains in-flight runs
    pools_.clear();
    vm_.reset();
  }

  rr::Status Start() {
    vm_ = std::make_unique<rr::runtime::WasmVm>("perfbench-front");
    runtime_ = std::make_unique<rr::api::Runtime>("perfbench-front");
    const Bytes binary = rr::runtime::BuildFunctionModuleBinary();
    rr::runtime::PoolOptions pool_options;  // fully warm: no growth under load
    pool_options.min_warm = kConnections;
    pool_options.max_instances = kConnections;
    for (size_t i = 0; i < kChain.size(); ++i) {
      rr::runtime::FunctionSpec spec;
      spec.name = kChain[i];
      spec.workflow = "perfbench-front";
      const bool shared_vm = kChain[i] != "score";
      std::shared_ptr<rr::core::ShimPool> pool;
      if (shared_vm) {
        RR_ASSIGN_OR_RETURN(pool, rr::core::ShimPool::CreateInVm(
                                      *vm_, spec, binary, {}, pool_options));
      } else {
        RR_ASSIGN_OR_RETURN(pool, rr::core::ShimPool::Create(spec, binary, {},
                                                             pool_options));
      }
      RR_RETURN_IF_ERROR(pool->Deploy(XorHandler(kKeys[i])));
      rr::core::Endpoint endpoint;
      endpoint.pool = pool;
      endpoint.location = {"node-1", shared_vm ? "vm-1" : ""};
      RR_RETURN_IF_ERROR(runtime_->Register(endpoint));
      pools_.push_back(std::move(pool));
    }

    rr::gateway::AdmissionInterceptor::Options admission;
    admission.max_inflight_runs = 256;
    admission.inflight = [rt = runtime_.get()] { return rt->in_flight(); };
    rr::gateway::Gateway::Options options;
    options.interceptors = {
        std::make_shared<rr::gateway::RequestIdInterceptor>(),
        std::make_shared<rr::gateway::BodyLimitInterceptor>(64 * 1024),
        std::make_shared<rr::gateway::AdmissionInterceptor>(admission)};
    RR_ASSIGN_OR_RETURN(gateway_,
                        rr::gateway::Gateway::Start(runtime_.get(), options));
    return gateway_->AddRoute(kRoute, rr::api::ChainSpec{kChain});
  }

  rr::api::Runtime& runtime() { return *runtime_; }
  uint16_t port() const { return gateway_->port(); }
  const std::vector<std::shared_ptr<rr::core::ShimPool>>& pools() const {
    return pools_;
  }

 private:
  std::unique_ptr<rr::runtime::WasmVm> vm_;
  std::vector<std::shared_ptr<rr::core::ShimPool>> pools_;
  std::unique_ptr<rr::api::Runtime> runtime_;
  std::unique_ptr<rr::gateway::Gateway> gateway_;
};

// One keep-alive connection speaking pre-encoded requests.
class Connection {
 public:
  rr::Status Open(uint16_t port) {
    RR_ASSIGN_OR_RETURN(conn_, rr::osal::TcpConnect("127.0.0.1", port));
    conn_.SetNoDelay(true);
    parser_ = rr::http::ResponseParser();
    return conn_.SetIoTimeouts(std::chrono::seconds(10));
  }

  // Sends one request and reads its response. True when the response is a
  // 200 whose body equals `expected`; `status` gets the HTTP status (0 when
  // the connection failed, which also closes it).
  bool RoundTrip(ByteSpan request, const Bytes& expected, int* status) {
    *status = 0;
    if (!conn_.valid() || !conn_.Send(request).ok()) return Close();
    responses_.clear();
    while (responses_.empty()) {
      auto n = conn_.ReceiveSome(rr::MutableByteSpan(buffer_, sizeof(buffer_)));
      if (!n.ok() || *n == 0) return Close();
      if (!parser_.Feed(ByteSpan(buffer_, *n), &responses_).ok()) {
        return Close();
      }
    }
    *status = responses_.front().status_code;
    return *status == 200 && responses_.front().body == expected;
  }

 private:
  bool Close() {
    conn_ = rr::osal::Connection();
    return false;
  }

  rr::osal::Connection conn_;
  rr::http::ResponseParser parser_;
  std::vector<rr::http::Response> responses_;
  uint8_t buffer_[64 * 1024];
};

// One request's record, kept per generator thread.
struct Sample {
  TimePoint due{};
  double latency_ms = 0;  // response time minus due time
  double rtt_ms = 0;      // response time minus send time
  double late_ms = 0;     // send time minus due time
  int status = 0;
  bool ok = false;
};

// Offers kRatePerSecond over kConnections for [start, end): connection t
// owns slots t, t + kConnections, ... of the global schedule. Waits sleep.
std::vector<Sample> Generate(uint16_t port, const Inputs& inputs,
                             TimePoint start, TimePoint end,
                             size_t first_input) {
  const Nanos period = std::chrono::duration_cast<Nanos>(
      std::chrono::duration<double>(1.0 / kRatePerSecond));
  std::vector<std::vector<Sample>> per_thread(kConnections);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      Connection conn;
      (void)conn.Open(port);
      std::vector<Sample>& samples = per_thread[t];
      for (size_t slot = t;; slot += kConnections) {
        const TimePoint due = start + period * static_cast<int64_t>(slot);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const size_t input = (first_input + slot) % kInputs;
        Sample sample;
        sample.due = due;
        const TimePoint sent = Now();
        sample.ok = conn.RoundTrip(inputs.requests[input],
                                   inputs.expected[input], &sample.status);
        const TimePoint done = Now();
        sample.latency_ms = Ms(done - due);
        sample.rtt_ms = Ms(done - sent);
        sample.late_ms = Ms(sent - due);
        samples.push_back(sample);
        if (sample.status == 0) (void)conn.Open(port);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Sample> all;
  for (const auto& samples : per_thread) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

// Set-up from nothing to the first correct HTTP response.
Result<std::unique_ptr<FrontDeployment>> SetUp(const Inputs& inputs,
                                               double* seconds) {
  const TimePoint start = Now();
  auto d = std::make_unique<FrontDeployment>();
  RR_RETURN_IF_ERROR(d->Start());
  Connection conn;
  RR_RETURN_IF_ERROR(conn.Open(d->port()));
  int status = 0;
  if (!conn.RoundTrip(inputs.requests[0], inputs.expected[0], &status)) {
    return rr::InternalError(
        "first response after set-up was not correct (HTTP " +
        std::to_string(status) + ")");
  }
  *seconds = rr::ToSeconds(Now() - start);
  return d;
}

// Median time of one RequestParser::Feed of a workload request.
double ProbeParseUs(const Inputs& inputs) {
  constexpr int kBatch = 100;
  rr::http::RequestParser parser;
  std::vector<rr::http::Request> out;
  std::vector<double> samples;
  for (int b = 0; b < 20; ++b) {
    const TimePoint start = Now();
    for (int i = 0; i < kBatch; ++i) {
      out.clear();
      (void)parser.Feed(inputs.requests[static_cast<size_t>(i) % kInputs],
                        &out);
    }
    samples.push_back(Us(Now() - start) / kBatch);
  }
  return Median(samples);
}

std::vector<double> Collect(const std::vector<Sample>& samples,
                            double Sample::*field,
                            const std::function<bool(const Sample&)>& keep) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok && keep(s)) out.push_back(s.*field);
  }
  return out;
}

int RunUntraced(const Args& args, const Inputs& inputs) {
  std::vector<double> setup_s;
  std::unique_ptr<FrontDeployment> d;
  for (int k = 0; k < kSetupRepeats; ++k) {
    d.reset();  // tear the previous instance down outside the timing
    double seconds = 0;
    auto deployed = SetUp(inputs, &seconds);
    if (!deployed.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    d = std::move(*deployed);
    setup_s.push_back(seconds);
  }
  const TimePoint warm = Now();
  (void)Generate(d->port(), inputs, warm, warm + kWarmup, 0);

  CounterDeltas window;
  const ProcSnapshot before = TakeSnapshot();
  const TimePoint start = before.at + std::chrono::milliseconds(1);
  const std::vector<Sample> samples = Generate(
      d->port(), inputs, start,
      start + std::chrono::duration_cast<Nanos>(
                  std::chrono::duration<double>(args.seconds)),
      1);
  const ProcSnapshot after = TakeSnapshot();
  window.Add(before, after);
  const double window_s = rr::ToSeconds(after.at - start);

  const auto all = [](const Sample&) { return true; };
  const std::vector<double> latency =
      Collect(samples, &Sample::latency_ms, all);
  std::vector<double> late;
  for (const Sample& s : samples) late.push_back(s.late_ms);
  const uint64_t attempted = samples.size();
  const uint64_t failed = attempted - latency.size();
  const double runs = static_cast<double>(latency.size());

  Report report;
  report.Add("p50_ms", Median(latency), "ms");
  report.Add("throughput_rps", window_s > 0 ? runs / window_s : 0, "1/s");
  report.Add("cpu_ms_per_run", runs > 0 ? window.cpu_ms / runs : 0, "ms");
  report.Add("copied_bytes_per_run", runs > 0 ? window.copied / runs : 0, "B");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
  const std::vector<std::string> notes = {
      "workload front-4k, seed " + std::to_string(args.seed) +
          ", open loop at " + std::to_string(static_cast<int>(kRatePerSecond)) +
          " req/s; generator " + std::to_string(kConnections) + " threads, " +
          std::to_string(kConnections) + " keep-alive connections, nproc " +
          std::to_string(Nproc()),
      "transport: loopback only, no netsim link",
      Note("error_rate", attempted ? static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                                    : 0.0) +
          " (" + std::to_string(failed) + " of " + std::to_string(attempted) +
          " requests failed, refused or wrong)",
      Note("p99_ms", Percentile(latency, 0.99)),
      Note("gen.late_p99_ms", Percentile(late, 0.99)),
  };
  return Emit(report, notes, failed == 0, attempted, failed);
}

// Trace mode rotates 500 ms blocks of three kinds, so drift cancels out of
// the comparisons between them:
//   kPlain    as the untraced run;
//   kProbed   plus the layer probes: a direct Submit of the same chain every
//             20 ms (its RunStats and Submit() time stand for the gateway's
//             runs) and counter reads at the block's ends;
//   kTracing  with invocation tracing on (the switch Options::tracing sets).
enum BlockKind { kPlain = 0, kProbed = 1, kTracing = 2 };
constexpr int kBlockKinds = 3;
constexpr auto kBlock = std::chrono::milliseconds(500);

int RunTraced(const Args& args, const Inputs& inputs) {
  double setup_seconds = 0;
  auto deployed = SetUp(inputs, &setup_seconds);
  if (!deployed.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 deployed.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<FrontDeployment> d = std::move(*deployed);
  const TimePoint warm = Now();
  (void)Generate(d->port(), inputs, warm, warm + kWarmup, 0);

  const auto window = std::chrono::duration_cast<Nanos>(
      std::chrono::duration<double>(args.seconds));
  const TimePoint start = Now() + std::chrono::milliseconds(5);
  const TimePoint end = start + window;
  const auto block_of = [start](TimePoint t) {
    return static_cast<int>((t - start) / kBlock) % kBlockKinds;
  };

  // The controller flips tracing and the probe at block boundaries, charges
  // each block's process CPU to its kind, and brackets every probed block
  // with counter readings.
  std::atomic<bool> probing{false};
  std::atomic<bool> stop{false};
  double cpu_ms[kBlockKinds] = {0, 0, 0};
  LayerSamples layers;
  CounterDeltas deltas;  // of probed blocks
  HistogramTotals submit_latency;  // summed over probed blocks
  const auto classify = [](const rr::telemetry::EdgeSample& edge) {
    return edge.mode == "user-space" ? EdgeClass::kUser : EdgeClass::kKernel;
  };
  std::thread controller([&] {
    for (TimePoint at = start; at < end; at += kBlock) {
      std::this_thread::sleep_until(at);
      const int kind = block_of(at);
      rr::obs::SetTracingEnabled(kind == kTracing);
      const ProcSnapshot snap_before = TakeSnapshot();
      const LayerCounters layers_before =
          ReadLayerCounters(d->pools(), nullptr);
      const HistogramTotals h_before =
          RegistryHistogram("rr_submit_latency_seconds");
      probing = kind == kProbed;
      std::this_thread::sleep_until(std::min(at + kBlock, end));
      probing = false;
      const ProcSnapshot snap_after = TakeSnapshot();
      cpu_ms[kind] += snap_after.cpu_ms - snap_before.cpu_ms;
      if (kind != kProbed) continue;
      deltas.Add(snap_before, snap_after);
      deltas.Add(layers_before, ReadLayerCounters(d->pools(), nullptr));
      const HistogramTotals h_after =
          RegistryHistogram("rr_submit_latency_seconds");
      submit_latency.sum += h_after.sum - h_before.sum;
      submit_latency.count += h_after.count - h_before.count;
    }
    rr::obs::SetTracingEnabled(false);
  });
  uint64_t probe_runs = 0;
  uint64_t probe_failed = 0;
  std::thread prober([&] {
    const rr::api::ChainSpec chain{kChain};
    for (size_t i = 0; !stop; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (!probing) continue;
      const TimePoint t0 = Now();
      auto invocation = d->runtime().Submit(chain, inputs.bodies[i % kInputs]);
      const Nanos submit = Now() - t0;
      ++probe_runs;
      if (!invocation.ok()) {
        ++probe_failed;
        continue;
      }
      const Result<rr::Buffer>& result = (*invocation)->Wait();
      if (!result.ok() || result->ToBytes() != inputs.expected[i % kInputs]) {
        ++probe_failed;
        continue;
      }
      layers.Add((*invocation)->stats(), submit, classify);
    }
  });
  const std::vector<Sample> samples =
      Generate(d->port(), inputs, start, end, 1);
  controller.join();
  stop = true;
  prober.join();

  const auto in_kind = [&block_of](int kind) {
    return [&block_of, kind](const Sample& s) {
      return block_of(s.due) == kind;
    };
  };
  const std::vector<double> plain =
      Collect(samples, &Sample::latency_ms, in_kind(kPlain));
  const std::vector<double> probed =
      Collect(samples, &Sample::latency_ms, in_kind(kProbed));
  const std::vector<double> tracing =
      Collect(samples, &Sample::latency_ms, in_kind(kTracing));
  const std::vector<double> probed_rtt =
      Collect(samples, &Sample::rtt_ms, in_kind(kProbed));
  uint64_t rejected = 0;
  uint64_t failed = probe_failed;
  for (const Sample& s : samples) {
    if (s.status != 200) ++rejected;
    if (!s.ok) ++failed;
  }
  const double probed_requests = static_cast<double>(probed.size()) +
                                 static_cast<double>(layers.run_ms.size());
  const double run_mean_ms =
      submit_latency.count > 0
          ? submit_latency.sum * 1000.0 /
                static_cast<double>(submit_latency.count)
          : 0;
  const double parse_us = ProbeParseUs(inputs);
  auto invoke_us = ProbeInvokeUs(XorHandler(kKeys[0]), inputs.bodies[0], 200);
  if (!invoke_us.ok()) {
    std::fprintf(stderr, "invoke probe failed: %s\n",
                 invoke_us.status().ToString().c_str());
    return 1;
  }

  Report report;
  report.Add("gateway.self_ms", Mean(probed_rtt) - run_mean_ms, "ms");
  report.Add("http.parse_us", parse_us, "us");
  report.Add("gateway.rejected", static_cast<double>(rejected), "count");
  AddLayerMetrics(report, layers, deltas, probed_requests,
                  static_cast<double>(d->runtime().manager().hops().size()),
                  *invoke_us);
  const double p50_plain = Median(plain);
  const auto p50_cost_pct = [p50_plain](const std::vector<double>& v) {
    return p50_plain > 0 ? (Median(v) / p50_plain - 1) * 100 : 0;
  };
  // Tracing's cost is the CPU it adds per request; at a fixed offered rate
  // well under capacity, latency hides most of it.
  const auto cpu_per_request = [&cpu_ms](int kind, size_t requests) {
    return requests > 0 ? cpu_ms[kind] / static_cast<double>(requests) : 0;
  };
  const double cpu_plain = cpu_per_request(kPlain, plain.size());
  const double cpu_tracing = cpu_per_request(kTracing, tracing.size());
  report.Add("obs.tracing_cost_pct",
             cpu_plain > 0 ? (cpu_tracing / cpu_plain - 1) * 100 : 0, "%");
  report.Add("bench.trace_cost_pct", p50_cost_pct(probed), "%");
  // Only directly timed stages count; stages known by subtraction
  // (gateway.self_ms, dag.sched_ms) would make the sum 100% by definition.
  // parse is the chain's source; enrich and score are invoked after their
  // edges' deliveries, so no EdgeSample covers any of the three invokes.
  const double covered_ms =
      (parse_us + Median(layers.submit_us) + 3 * *invoke_us) / 1000.0 +
      Median(layers.queue_ms) + Median(layers.path_edge_ms);
  const double p50_probed = Median(probed);
  report.Add("bench.coverage_pct",
             p50_probed > 0 ? covered_ms / p50_probed * 100 : 0, "%");

  std::vector<std::string> notes = {
      "workload front-4k (traced), seed " + std::to_string(args.seed) +
          "; generator " + std::to_string(kConnections) + " threads, " +
          std::to_string(kConnections) + " connections, nproc " +
          std::to_string(Nproc()),
      "transport: loopback only, no netsim link",
      Note("p50_ms plain blocks", p50_plain),
      Note("p50_ms probed blocks", p50_probed),
      Note("p50_ms tracing blocks", Median(tracing)),
      Note("cpu_ms per request, plain blocks", cpu_plain),
      Note("cpu_ms per request, tracing blocks", cpu_tracing),
      Note("tracing cost on p50, %", p50_cost_pct(tracing)),
      Note("probe runs", static_cast<double>(probe_runs)),
  };
  return Emit(report, notes, failed == 0, samples.size() + probe_runs, failed);
}

}  // namespace

int RunFront(const Args& args) {
  const Inputs inputs = MakeInputs(args.seed);
  return args.trace ? RunTraced(args, inputs) : RunUntraced(args, inputs);
}

}  // namespace rrperf
