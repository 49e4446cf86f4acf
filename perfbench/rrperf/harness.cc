#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/shim.h"
#include "obs/metrics.h"
#include "osal/proc_stats.h"
#include "runtime/function.h"
#include "workload/payload.h"

namespace rrperf {

using rr::Nanos;
using rr::Now;

// --- handlers ---------------------------------------------------------------

rr::runtime::NativeHandler XorHandler(uint8_t key) {
  return [key](rr::ByteSpan input) -> rr::Result<rr::Bytes> {
    rr::Bytes out(input.begin(), input.end());
    for (uint8_t& byte : out) byte ^= key;
    return out;
  };
}

rr::Result<rr::Bytes> DigestHandler(rr::ByteSpan input) {
  const uint64_t digest = rr::workload::BodyChecksum(input);
  rr::Bytes out(sizeof(digest));
  std::memcpy(out.data(), &digest, sizeof(digest));
  return out;
}

bool IsDigest(const rr::Buffer& output, uint64_t expected) {
  if (output.size() != sizeof(uint64_t)) return false;
  uint64_t digest = 0;
  output.CopyTo(rr::MutableByteSpan(reinterpret_cast<uint8_t*>(&digest),
                                    sizeof(digest)));
  return digest == expected;
}

// --- order statistics --------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- process counters --------------------------------------------------------

ProcSnapshot TakeSnapshot() {
  ProcSnapshot snap;
  snap.at = Now();
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  snap.cpu_ms = ms(usage.ru_utime) + ms(usage.ru_stime);
  snap.minflt = usage.ru_minflt;
  snap.vcsw = usage.ru_nvcsw;
  snap.ivcsw = usage.ru_nivcsw;
  snap.copied = rr::Buffer::TotalBytesCopied();
  snap.allocated = rr::Buffer::TotalBytesAllocated();
  return snap;
}

double PeakRssMib() {
  return static_cast<double>(rr::osal::PeakResidentSetBytes()) /
         (1024.0 * 1024.0);
}

double ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return 0;
}

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

uint64_t RegistryCounter(const char* name) {
  rr::obs::Counter* counter = rr::obs::Registry::Get().counter(name);
  return counter == nullptr ? 0 : counter->Value();
}

HistogramTotals RegistryHistogram(const char* name) {
  rr::obs::Histogram* histogram = rr::obs::Registry::Get().histogram(name);
  if (histogram == nullptr) return {};
  const rr::obs::Histogram::Snapshot snap = histogram->Snap();
  return {snap.sum, snap.count};
}

// --- the report --------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Print(const std::vector<std::string>& notes) const {
  for (const std::string& note : notes) std::printf("# %s\n", note.c_str());
  for (const Entry& entry : entries_) {
    std::printf("%-36s %16.6f %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << entries_[i].name << "\": {\"value\": " << entries_[i].value
        << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Note(const std::string& label, double value) {
  char text[32];
  std::snprintf(text, sizeof(text), " %.6f", value);
  return label + text;
}

int Emit(const Report& report, const std::vector<std::string>& notes,
         bool correct, uint64_t attempted, uint64_t failed) {
  report.Print(notes);
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return 0;
}

// --- per-layer samples -------------------------------------------------------

void LayerSamples::Add(
    const rr::api::RunStats& stats, Nanos submit,
    const std::function<EdgeClass(const rr::telemetry::EdgeSample&)>&
        classify) {
  submit_us.push_back(Us(submit));
  queue_ms.push_back(Ms(stats.queued));
  run_ms.push_back(Ms(stats.total));
  transfer_phase_ms.push_back(Ms(stats.dag.transfer_phase));
  double slowest[kEdgeClasses] = {0, 0, 0, 0};
  Nanos wasm_io{0};
  for (const rr::telemetry::EdgeSample& edge : stats.dag.edges) {
    const int cls = static_cast<int>(classify(edge));
    const double ms = Ms(edge.latency);
    edge_ms[cls].push_back(ms);
    slowest[cls] = std::max(slowest[cls], ms);
    wasm_io += edge.wasm_io;
    if (cls == static_cast<int>(EdgeClass::kKernel) &&
        edge.latency.count() > 0) {
      kernel_gbps.push_back(static_cast<double>(edge.bytes) /
                            static_cast<double>(edge.latency.count()));
    }
  }
  wasm_io_ms.push_back(Ms(wasm_io));
  path_edge_ms.push_back(std::accumulate(slowest, slowest + kEdgeClasses, 0.0));
}

LayerCounters ReadLayerCounters(
    const std::vector<std::shared_ptr<rr::core::ShimPool>>& pools,
    const rr::core::NodeAgent* agent) {
  LayerCounters counters;
  for (const auto& pool : pools) {
    const rr::runtime::PoolMetrics metrics = pool->metrics();
    counters.lease_waits += metrics.waits;
    counters.pool_grows += metrics.grows;
  }
  if (agent != nullptr) {
    counters.agent_transfers = agent->transfers_completed();
    counters.agent_refused = agent->transfers_refused();
  }
  counters.stream_stalls = RegistryCounter("rr_agent_stream_stalls_total");
  counters.wire_bytes_sent = RegistryCounter("rr_wire_bytes_sent_total");
  return counters;
}

rr::Result<double> ProbeInvokeUs(rr::runtime::NativeHandler handler,
                                 const rr::Buffer& input, int repeats) {
  rr::runtime::FunctionSpec spec;
  spec.name = "invoke-probe";
  spec.workflow = "perfbench-probe";
  RR_ASSIGN_OR_RETURN(
      std::unique_ptr<rr::core::Shim> shim,
      rr::core::Shim::Create(spec, rr::runtime::BuildFunctionModuleBinary()));
  RR_RETURN_IF_ERROR(shim->Deploy(std::move(handler)));
  std::vector<double> samples;
  // One untimed call grows linear memory to the working size.
  for (int i = 0; i <= repeats; ++i) {
    const rr::TimePoint start = Now();
    RR_ASSIGN_OR_RETURN(const rr::core::InvokeOutcome outcome,
                        shim->DeliverAndInvoke(rr::BufferView(input)));
    const Nanos elapsed = Now() - start;
    RR_RETURN_IF_ERROR(shim->ReleaseRegion(outcome.output));
    if (i > 0) samples.push_back(Us(elapsed));
  }
  return Median(std::move(samples));
}

void CounterDeltas::Add(const ProcSnapshot& before, const ProcSnapshot& after) {
  cpu_ms += after.cpu_ms - before.cpu_ms;
  minflt += static_cast<double>(after.minflt - before.minflt);
  vcsw += static_cast<double>(after.vcsw - before.vcsw);
  ivcsw += static_cast<double>(after.ivcsw - before.ivcsw);
  copied += static_cast<double>(after.copied - before.copied);
  allocated += static_cast<double>(after.allocated - before.allocated);
}

void CounterDeltas::Add(const LayerCounters& before,
                        const LayerCounters& after) {
  layers.lease_waits += after.lease_waits - before.lease_waits;
  layers.pool_grows += after.pool_grows - before.pool_grows;
  layers.agent_transfers += after.agent_transfers - before.agent_transfers;
  layers.agent_refused += after.agent_refused - before.agent_refused;
  layers.stream_stalls += after.stream_stalls - before.stream_stalls;
  layers.wire_bytes_sent += after.wire_bytes_sent - before.wire_bytes_sent;
}

void AddLayerMetrics(Report& report, const LayerSamples& s,
                     const CounterDeltas& d, double runs, double hops,
                     double invoke_us) {
  const auto per_run = [runs](double delta) {
    return runs > 0 ? delta / runs : 0.0;
  };
  const auto edge = [&s](EdgeClass cls) {
    return Median(s.edge_ms[static_cast<int>(cls)]);
  };
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  report.Add("api.submit_us", Median(s.submit_us), "us");
  report.Add("api.queue_ms", Median(s.queue_ms), "ms");
  report.Add("proc.threads", ThreadCount(), "count");
  report.Add("dag.run_ms", Median(s.run_ms), "ms");
  std::vector<double> sched;
  for (size_t i = 0; i < s.run_ms.size(); ++i) {
    sched.push_back(s.run_ms[i] - s.transfer_phase_ms[i]);
  }
  report.Add("dag.sched_ms", Median(sched), "ms");
  report.Add("dag.transfer_phase_ms", Median(s.transfer_phase_ms), "ms");
  report.Add("core.user.edge_ms", edge(EdgeClass::kUser), "ms");
  report.Add("core.kernel.edge_ms", edge(EdgeClass::kKernel), "ms");
  report.Add("core.kernel.edge_GBps", Median(s.kernel_gbps), "GB/s");
  report.Add("core.mux.edge_ms", edge(EdgeClass::kMux), "ms");
  report.Add("core.hose.edge_ms", edge(EdgeClass::kHose), "ms");
  report.Add("core.agent.transfers_per_run",
             per_run(count(d.layers.agent_transfers)), "count");
  report.Add("core.agent.refused", count(d.layers.agent_refused), "count");
  report.Add("core.agent.stream_stalls_per_run",
             per_run(count(d.layers.stream_stalls)), "count");
  report.Add("core.wire.bytes_sent_per_run",
             per_run(count(d.layers.wire_bytes_sent)), "B");
  report.Add("core.wasm_io_ms", Median(s.wasm_io_ms), "ms");
  report.Add("core.hops", hops, "count");
  report.Add("runtime.lease_waits_per_run",
             per_run(count(d.layers.lease_waits)), "count");
  report.Add("runtime.pool_grows", count(d.layers.pool_grows), "count");
  report.Add("runtime.invoke_us", invoke_us, "us");
  report.Add("buffer.allocated_bytes_per_run", per_run(d.allocated), "B");
  report.Add("proc.minflt_per_run", per_run(d.minflt), "count");
  report.Add("proc.vcsw_per_run", per_run(d.vcsw), "count");
  report.Add("proc.ivcsw_per_run", per_run(d.ivcsw), "count");
}

// --- the Submit-driven closed loop -------------------------------------------

namespace {

struct Attempt {
  bool ok = false;
  Nanos latency{0};
  Nanos submit{0};
  std::shared_ptr<rr::api::Invocation> invocation;
};

Attempt RunOne(Deployment& d, size_t i) {
  Attempt attempt;
  const rr::TimePoint start = Now();
  auto invocation = d.Submit(i);
  attempt.submit = Now() - start;
  if (!invocation.ok()) return attempt;
  const rr::Result<rr::Buffer>& result = (*invocation)->Wait();
  attempt.latency = Now() - start;
  attempt.ok = result.ok() && d.Check(i, *result);
  attempt.invocation = std::move(*invocation);
  return attempt;
}

// Set-up from nothing to the first correct response. Returns the deployment
// and its set-up time in seconds.
rr::Result<std::unique_ptr<Deployment>> SetUp(const ClosedLoopWorkload& w,
                                              double* seconds) {
  const rr::TimePoint start = Now();
  RR_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, w.setup());
  if (!RunOne(*d, 0).ok) {
    return rr::InternalError("first response after set-up was not correct");
  }
  *seconds = rr::ToSeconds(Now() - start);
  return d;
}

}  // namespace

int RunClosedLoop(const Args& args, const ClosedLoopWorkload& workload) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kSetupRepeats; ++k) {
    d.reset();  // tear the previous instance down outside the timing
    double seconds = 0;
    auto deployed = SetUp(workload, &seconds);
    if (!deployed.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    d = std::move(*deployed);
    setup_s.push_back(seconds);
  }
  size_t next = 1;
  for (int i = 0; i < workload.warmup_runs; ++i) (void)RunOne(*d, next++);

  const auto classify = [&d](const rr::telemetry::EdgeSample& edge) {
    return d->Classify(edge);
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;         // untraced runs
  std::vector<double> traced_latency_ms;  // traced runs (trace mode only)
  LayerSamples layers;
  CounterDeltas deltas;  // of traced runs
  const ProcSnapshot start = TakeSnapshot();
  ProcSnapshot last = start;
  const rr::TimePoint deadline =
      start.at + std::chrono::duration_cast<Nanos>(
                     std::chrono::duration<double>(args.seconds));
  while (Now() < deadline) {
    // Trace mode alternates untraced and traced runs, so drift cancels out
    // of bench.trace_cost_pct; only traced runs feed the layer metrics.
    const bool traced = args.trace && attempted % 2 == 1;
    ProcSnapshot before;
    LayerCounters layer_before;
    if (traced) {
      before = TakeSnapshot();
      layer_before = ReadLayerCounters(d->pools(), d->agent());
    }
    const Attempt attempt = RunOne(*d, next++);
    ++attempted;
    if (!attempt.ok) {
      ++failed;
      continue;
    }
    if (!traced) {
      latency_ms.push_back(Ms(attempt.latency));
      last = TakeSnapshot();
      continue;
    }
    deltas.Add(before, TakeSnapshot());
    deltas.Add(layer_before, ReadLayerCounters(d->pools(), d->agent()));
    traced_latency_ms.push_back(Ms(attempt.latency));
    layers.Add(attempt.invocation->stats(), attempt.submit, classify);
  }

  Report report;
  std::vector<std::string> notes = {
      "workload " + args.workload + ", seed " + std::to_string(args.seed) +
          ", one closed-loop submitter, nproc " + std::to_string(Nproc()),
      "transport: loopback only, no netsim link",
  };
  const bool correct = failed == 0;
  if (!args.trace) {
    const double runs = static_cast<double>(latency_ms.size());
    report.Add("p50_ms", Median(latency_ms), "ms");
    CounterDeltas window;
    window.Add(start, last);
    const double window_s = rr::ToSeconds(last.at - start.at);
    report.Add("throughput_rps", window_s > 0 ? runs / window_s : 0, "1/s");
    report.Add("cpu_ms_per_run", runs > 0 ? window.cpu_ms / runs : 0, "ms");
    report.Add("copied_bytes_per_run", runs > 0 ? window.copied / runs : 0,
               "B");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mib", PeakRssMib(), "MiB");
    const double error_rate = attempted ? static_cast<double>(failed) /
                                              static_cast<double>(attempted)
                                        : 0.0;
    notes.push_back(Note("error_rate", error_rate) +
                    " (" + std::to_string(failed) + " of " +
                    std::to_string(attempted) + " runs failed or wrong)");
    notes.push_back(Note("p99_ms", Percentile(latency_ms, 0.99)) + " over " +
                    std::to_string(latency_ms.size()) + " runs");
    return Emit(report, notes, correct, attempted, failed);
  }

  auto invoke_us = workload.probe_invoke_us();
  if (!invoke_us.ok()) {
    std::fprintf(stderr, "invoke probe failed: %s\n",
                 invoke_us.status().ToString().c_str());
    return 1;
  }
  const double traced_runs = static_cast<double>(traced_latency_ms.size());
  const double p50_traced = Median(traced_latency_ms);
  const double p50_untraced = Median(latency_ms);
  report.Add("gateway.self_ms", 0, "ms");
  report.Add("http.parse_us", 0, "us");
  report.Add("gateway.rejected", 0, "count");
  AddLayerMetrics(report, layers, deltas, traced_runs,
                  static_cast<double>(d->runtime().manager().hops().size()),
                  *invoke_us);
  report.Add("obs.tracing_cost_pct", 0, "%");
  report.Add("bench.trace_cost_pct",
             p50_untraced > 0 ? (p50_traced / p50_untraced - 1) * 100 : 0, "%");
  const double covered_ms =
      (Median(layers.submit_us) + *invoke_us * workload.uncovered_invokes) /
          1000.0 +
      Median(layers.queue_ms) + Median(layers.path_edge_ms);
  report.Add("bench.coverage_pct",
             p50_traced > 0 ? covered_ms / p50_traced * 100 : 0, "%");
  notes.push_back("traced runs " + std::to_string(layers.run_ms.size()) +
                  ", untraced runs " + std::to_string(latency_ms.size()));
  notes.push_back(Note("p50_ms traced runs", p50_traced));
  notes.push_back(Note("p50_ms untraced runs", p50_untraced));
  return Emit(report, notes, correct, attempted, failed);
}

}  // namespace rrperf
