// NodeAgent scale bench: in-flight stream concurrency against one agent
// over a handful of multiplexed connections.
//
// The claim the event-driven ingress makes: concurrent remote transfers cost the
// agent table entries, not threads. This bench establishes L in-flight
// streams (256 -> 10k) with the function pool *gated* — the handler parks
// every invoke worker until the gate opens — so all L transfers are staged
// on the agent simultaneously, then opens the gate and measures the drain.
//
// Method, per level L:
//   1. Close the gate, then start L streams (64 B payloads) round-robin
//      across --connections MuxClients sharing one sender reactor thread.
//      Each stream's *scheduled* start time is recorded at StartStream.
//   2. At the top of the ramp — every stream started, none completed —
//      sample the in-flight count, the agent's stream gauge, and the
//      process thread count. Thread count minus the pre-agent baseline is
//      the agent's whole thread bill; it must track shards + invoke
//      workers, never L or the connection count.
//   3. Open the gate; every stream's residence latency is measured from
//      its scheduled start (the coordinated-omission correction: a slow
//      agent cannot shrink its own percentiles by slowing the ramp).
//
// After the sweep: a leak audit (every pool instance's registered-region
// count must return to its pre-load baseline — the agent self-releases
// delivered outputs), and a sequential one-in-flight baseline: the
// per-transfer round trip to the invocation's completion frame with nothing
// else in flight.
//
// Flags (on top of bench_common's --full/--reps=N/--csv):
//   --json             machine-readable JSON on stdout (CI redirects to
//                      BENCH_agent_scale.json)
//   --max-inflight=N   top of the concurrency ramp (default 10000)
//   --connections=N    MuxClient fleet size (default 4)
//   --payload=BYTES    per-stream payload (default 64)
//   --pool=P           warm instances in the function pool (default 8)
//   --shards=S         agent epoll shards (default 2)
//   --workers=W        agent invoke workers (default 4)
//   --seq=N            transfers in the sequential one-in-flight baseline
//                      (default 2000)
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/buffer.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/mux_client.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "obs/metrics.h"
#include "osal/reactor.h"
#include "runtime/function.h"
#include "telemetry/reporter.h"

namespace {

using namespace rr;

struct AgentScaleConfig {
  rrbench::BenchConfig base;
  bool json = false;
  size_t max_inflight = 10000;
  size_t connections = 4;
  size_t payload = 64;
  size_t pool = 8;
  size_t shards = 2;
  size_t workers = 4;
  size_t seq = 2000;
};

AgentScaleConfig ParseArgs(int argc, char** argv) {
  AgentScaleConfig config;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      config.json = true;
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      config.max_inflight = static_cast<size_t>(std::atoll(argv[i] + 15));
    } else if (arg.rfind("--connections=", 0) == 0) {
      config.connections = static_cast<size_t>(std::atoi(argv[i] + 14));
    } else if (arg.rfind("--payload=", 0) == 0) {
      config.payload = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (arg.rfind("--pool=", 0) == 0) {
      config.pool = static_cast<size_t>(std::atoi(argv[i] + 7));
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shards = static_cast<size_t>(std::atoi(argv[i] + 9));
    } else if (arg.rfind("--workers=", 0) == 0) {
      config.workers = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (arg.rfind("--seq=", 0) == 0) {
      config.seq = static_cast<size_t>(std::atoll(argv[i] + 6));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  config.base = rrbench::BenchConfig::FromArgs(
      static_cast<int>(passthrough.size()), passthrough.data());
  if (config.max_inflight == 0) config.max_inflight = 10000;
  if (config.connections == 0) config.connections = 4;
  if (config.payload == 0) config.payload = 64;
  if (config.pool == 0) config.pool = 8;
  if (config.shards == 0) config.shards = 2;
  if (config.workers == 0) config.workers = 4;
  if (config.seq == 0) config.seq = 2000;
  return config;
}

void RaiseFdLimit() {
  struct rlimit limit;
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  limit.rlim_cur = limit.rlim_max;
  setrlimit(RLIMIT_NOFILE, &limit);
}

// Kernel truth for the thread-bill claim: entries in /proc/self/task.
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

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "bench-agent-scale";
  spec.tenant = "default";
  return spec;
}

// Sums registered regions across every pool instance. Leases the whole pool,
// so callable only when no invoke is in flight (before load / after drain).
Result<size_t> RegionCount(core::ShimPool& pool, size_t instances) {
  std::vector<core::ShimLease> leases;
  leases.reserve(instances);
  size_t total = 0;
  for (size_t i = 0; i < instances; ++i) {
    RR_ASSIGN_OR_RETURN(core::ShimLease lease, pool.Lease());
    total += lease->data().registered_region_count();
    leases.push_back(std::move(lease));
  }
  return total;
}

// --- one concurrency level ---------------------------------------------------

struct LevelResult {
  size_t target = 0;
  size_t peak_in_flight = 0;       // sender-side, sampled at top of ramp
  double agent_streams_gauge = 0;  // agent-side cross-check at the same point
  uint64_t completed = 0;
  uint64_t failures = 0;  // start refusals + non-OK completions
  bool hung = false;
  double issue_ms = 0;  // gate closed: time to start every stream
  double drain_ms = 0;  // gate open -> last completion frame
  double per_transfer_us = 0;
  double p50_ms = 0;  // residence, measured from the scheduled start
  double p99_ms = 0;
  double p999_ms = 0;
  size_t threads = 0;        // process total at top of ramp
  size_t agent_threads = 0;  // minus the pre-agent baseline
};

// Completion bookkeeping shared with callbacks firing on the reactor thread.
struct LevelCtx {
  explicit LevelCtx(size_t n) : scheduled(n), residence_ms(n, 0.0) {}

  std::vector<TimePoint> scheduled;
  std::vector<double> residence_ms;
  std::atomic<int64_t> in_flight{0};
  std::atomic<uint64_t> failures{0};
  std::mutex mutex;
  std::condition_variable cv;
  uint64_t fired = 0;  // under mutex

  core::MuxClient::DoneFn Done(std::shared_ptr<LevelCtx> self, size_t index) {
    return [self = std::move(self), index](Status status) {
      self->residence_ms[index] =
          ToMillis(Now() - self->scheduled[index]);
      if (!status.ok()) {
        self->failures.fetch_add(1, std::memory_order_relaxed);
      }
      self->in_flight.fetch_sub(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(self->mutex);
        ++self->fired;
      }
      self->cv.notify_all();
    };
  }

  bool WaitAll(uint64_t expected, Nanos timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return fired >= expected; });
  }
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

LevelResult RunLevel(size_t target,
                     std::vector<std::shared_ptr<core::MuxClient>>& clients,
                     const Buffer& payload, std::atomic<bool>& gate,
                     size_t threads_base) {
  LevelResult result;
  result.target = target;
  auto ctx = std::make_shared<LevelCtx>(target);

  gate.store(false, std::memory_order_release);
  uint64_t started = 0;
  const TimePoint issue_start = Now();
  for (size_t i = 0; i < target; ++i) {
    ctx->scheduled[i] = Now();
    ctx->in_flight.fetch_add(1, std::memory_order_relaxed);
    const Status status = clients[i % clients.size()]->StartStream(
        "scale", payload, /*token=*/i + 1, std::chrono::seconds(30),
        ctx->Done(ctx, i));
    if (status.ok()) {
      ++started;
    } else {
      ctx->in_flight.fetch_sub(1, std::memory_order_relaxed);
      result.failures += 1;
    }
  }
  result.issue_ms = ToMillis(Now() - issue_start);

  // Top of the ramp: every stream started, the gate holds every completion.
  result.peak_in_flight = static_cast<size_t>(
      std::max<int64_t>(0, ctx->in_flight.load(std::memory_order_relaxed)));
  result.agent_streams_gauge =
      obs::Registry::Get().gauge("rr_agent_streams_in_flight")->Value();
  result.threads = CountThreads();
  result.agent_threads =
      result.threads > threads_base ? result.threads - threads_base : 0;

  const TimePoint open_time = Now();
  gate.store(true, std::memory_order_release);
  result.hung = !ctx->WaitAll(started, std::chrono::seconds(120));
  result.drain_ms = ToMillis(Now() - open_time);
  result.completed = started;
  result.failures += ctx->failures.load(std::memory_order_relaxed);
  if (target > 0) {
    result.per_transfer_us = result.drain_ms * 1000.0 / target;
  }

  std::vector<double> sorted(ctx->residence_ms);
  std::sort(sorted.begin(), sorted.end());
  result.p50_ms = Percentile(sorted, 0.50);
  result.p99_ms = Percentile(sorted, 0.99);
  result.p999_ms = Percentile(sorted, 0.999);
  return result;
}

// --- sequential one-in-flight baseline ---------------------------------------

struct StreamDone {
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  Status status;

  core::MuxClient::DoneFn Arm(std::shared_ptr<StreamDone> self) {
    return [self = std::move(self)](Status status) {
      {
        std::lock_guard<std::mutex> lock(self->mutex);
        self->fired = true;
        self->status = std::move(status);
      }
      self->cv.notify_all();
    };
  }

  // The stream's completion status, or kDeadlineExceeded if it never fired.
  Status Wait(Nanos timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, timeout, [this] { return fired; })) {
      return DeadlineExceededError("completion frame never arrived");
    }
    return status;
  }
};

struct OverheadResult {
  uint64_t transfers = 0;
  double mux_us = 0;  // per transfer, completion = invocation outcome
};

Result<OverheadResult> MeasureOverhead(core::MuxClient& client,
                                       const Buffer& payload, size_t count) {
  OverheadResult result;
  result.transfers = count;
  Stopwatch timer;
  for (size_t i = 0; i < count; ++i) {
    auto done = std::make_shared<StreamDone>();
    RR_RETURN_IF_ERROR(client.StartStream("scale", payload, /*token=*/i + 1,
                                          std::chrono::seconds(30),
                                          done->Arm(done)));
    RR_RETURN_IF_ERROR(done->Wait(std::chrono::seconds(30)));
  }
  result.mux_us = timer.ElapsedSeconds() * 1e6 / count;
  return result;
}

// --- reporting ---------------------------------------------------------------

void PrintTable(const std::vector<LevelResult>& levels,
                const OverheadResult& overhead, const AgentScaleConfig& config,
                size_t threads_base, size_t leaked_regions, bool csv) {
  rr::telemetry::PrintBanner(
      "Reactor agent under concurrent streams: threads vs in-flight");
  std::printf(
      "agent: %zu shards + %zu invoke workers, %zu sender connections, "
      "%zu B payloads, %zu-thread process baseline\n\n",
      config.shards, config.workers, config.connections, config.payload,
      threads_base);
  rr::telemetry::Table table({"In-flight", "Peak", "Agent gauge", "Failures",
                              "Issue (ms)", "Drain (ms)", "us/transfer",
                              "p50 (ms)", "p99 (ms)", "p99.9 (ms)",
                              "Agent threads"});
  for (const LevelResult& level : levels) {
    table.AddRow({std::to_string(level.target),
                  std::to_string(level.peak_in_flight),
                  StrFormat("%.0f", level.agent_streams_gauge),
                  std::to_string(level.failures),
                  StrFormat("%.1f", level.issue_ms),
                  StrFormat("%.1f", level.drain_ms),
                  StrFormat("%.2f", level.per_transfer_us),
                  StrFormat("%.2f", level.p50_ms),
                  StrFormat("%.2f", level.p99_ms),
                  StrFormat("%.2f", level.p999_ms),
                  std::to_string(level.agent_threads)});
  }
  std::fputs(table.Render().c_str(), stdout);
  if (csv) std::fputs(table.RenderCsv().c_str(), stdout);
  std::printf(
      "\nleaked regions after drain: %zu\n"
      "sequential baseline (%llu transfers): invocation completion %.2f us\n",
      leaked_regions, static_cast<unsigned long long>(overhead.transfers),
      overhead.mux_us);
}

void PrintJson(const std::vector<LevelResult>& levels,
               const OverheadResult& overhead, const AgentScaleConfig& config,
               size_t threads_base, size_t threads_idle,
               size_t leaked_regions) {
  std::printf("{\n  \"bench\": \"agent_scale\",\n");
  std::printf("  \"shards\": %zu,\n  \"invoke_workers\": %zu,\n",
              config.shards, config.workers);
  std::printf("  \"connections\": %zu,\n  \"payload_bytes\": %zu,\n",
              config.connections, config.payload);
  std::printf("  \"pool_size\": %zu,\n", config.pool);
  std::printf("  \"threads_base\": %zu,\n  \"threads_idle\": %zu,\n",
              threads_base, threads_idle);
  std::printf("  \"leaked_regions\": %zu,\n", leaked_regions);
  std::printf("  \"levels\": [\n");
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& level = levels[i];
    std::printf(
        "    {\"target\": %zu, \"peak_in_flight\": %zu, "
        "\"agent_streams_gauge\": %.0f, \"completed\": %llu, "
        "\"failures\": %llu, \"hung\": %s, \"issue_ms\": %.3f, "
        "\"drain_ms\": %.3f, \"per_transfer_us\": %.3f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"p999_ms\": %.3f, \"threads\": %zu, "
        "\"agent_threads\": %zu}%s\n",
        level.target, level.peak_in_flight, level.agent_streams_gauge,
        static_cast<unsigned long long>(level.completed),
        static_cast<unsigned long long>(level.failures),
        level.hung ? "true" : "false", level.issue_ms, level.drain_ms,
        level.per_transfer_us, level.p50_ms, level.p99_ms, level.p999_ms,
        level.threads, level.agent_threads,
        i + 1 < levels.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf(
      "  \"overhead\": {\"transfers\": %llu, \"mux_us\": %.3f}\n",
      static_cast<unsigned long long>(overhead.transfers), overhead.mux_us);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const AgentScaleConfig config = ParseArgs(argc, argv);
  RaiseFdLimit();

  // The gated function: parks every invoke worker until the gate opens, so a
  // level's streams all stage on the agent before any completion frame.
  std::atomic<bool> gate{true};
  runtime::PoolOptions pool_options;
  pool_options.min_warm = config.pool;
  pool_options.max_instances = config.pool;
  auto pool = core::ShimPool::Create(
      Spec("scale"), runtime::BuildFunctionModuleBinary(), {}, pool_options);
  if (!pool.ok()) {
    std::fprintf(stderr, "agent scale bench: pool failed: %s\n",
                 pool.status().ToString().c_str());
    return 1;
  }
  const Status deployed = (*pool)->Deploy(
      [&gate](ByteSpan input) -> Result<Bytes> {
        while (!gate.load(std::memory_order_acquire)) {
          PreciseSleep(std::chrono::microseconds(50));
        }
        return Bytes{static_cast<uint8_t>(input.size() & 0xff)};
      });
  if (!deployed.ok()) {
    std::fprintf(stderr, "agent scale bench: deploy failed: %s\n",
                 deployed.ToString().c_str());
    return 1;
  }
  auto regions_baseline = RegionCount(**pool, config.pool);
  if (!regions_baseline.ok()) {
    std::fprintf(stderr, "agent scale bench: region audit failed: %s\n",
                 regions_baseline.status().ToString().c_str());
    return 1;
  }

  // Sender plumbing before the agent exists: the thread baseline then charges
  // everything that appears next to the agent. MuxClients connect lazily, on
  // their first stream.
  auto reactor = osal::Reactor::Start("agent-scale-bench");
  if (!reactor.ok()) {
    std::fprintf(stderr, "agent scale bench: reactor failed: %s\n",
                 reactor.status().ToString().c_str());
    return 1;
  }
  const size_t threads_base = CountThreads();

  core::NodeAgent::Options agent_options;
  agent_options.transfer_deadline = std::chrono::seconds(30);
  agent_options.shards = config.shards;
  agent_options.invoke_workers = config.workers;
  auto agent = core::NodeAgent::Start(0, agent_options);
  if (!agent.ok()) {
    std::fprintf(stderr, "agent scale bench: agent failed: %s\n",
                 agent.status().ToString().c_str());
    return 1;
  }
  if (const Status registered = (*agent)->RegisterFunction(*pool);
      !registered.ok()) {
    std::fprintf(stderr, "agent scale bench: register failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }
  const size_t threads_idle = CountThreads();

  std::vector<std::shared_ptr<core::MuxClient>> clients;
  for (size_t i = 0; i < config.connections; ++i) {
    clients.push_back(
        core::MuxClient::Create(*reactor, "127.0.0.1", (*agent)->port()));
  }

  // Payload storage shared by every stream: Buffer copies share chunks.
  Bytes payload_bytes(config.payload, 0x5a);
  const Buffer payload = Buffer::Adopt(std::move(payload_bytes));

  std::vector<size_t> targets;
  for (const size_t level : {size_t{256}, size_t{1024}, size_t{4096}}) {
    if (level < config.max_inflight) targets.push_back(level);
  }
  targets.push_back(config.max_inflight);

  std::vector<LevelResult> levels;
  for (const size_t target : targets) {
    levels.push_back(RunLevel(target, clients, payload, gate, threads_base));
    if (levels.back().hung) {
      std::fprintf(stderr, "agent scale bench: level %zu hung\n", target);
      return 1;
    }
  }

  auto overhead = MeasureOverhead(*clients[0], payload, config.seq);
  if (!overhead.ok()) {
    std::fprintf(stderr, "agent scale bench: overhead phase failed: %s\n",
                 overhead.status().ToString().c_str());
    return 1;
  }

  // The last completion frame can beat the worker's own region release by a
  // hair; poll until the books balance before declaring a leak.
  size_t leaked_regions = 0;
  const TimePoint audit_deadline = Now() + std::chrono::seconds(3);
  while (true) {
    auto count = RegionCount(**pool, config.pool);
    if (!count.ok()) {
      std::fprintf(stderr, "agent scale bench: region audit failed: %s\n",
                   count.status().ToString().c_str());
      return 1;
    }
    leaked_regions = *count > *regions_baseline ? *count - *regions_baseline : 0;
    if (leaked_regions == 0 || Now() > audit_deadline) break;
    PreciseSleep(std::chrono::milliseconds(10));
  }

  if (config.json) {
    PrintJson(levels, *overhead, config, threads_base, threads_idle,
              leaked_regions);
  } else {
    PrintTable(levels, *overhead, config, threads_base, leaked_regions,
               config.base.csv);
  }

  for (const auto& client : clients) client->Close();
  clients.clear();
  (*reactor)->Stop();
  return 0;
}
