// Shared plumbing of the outside-in benchmark: arguments, process counters,
// order statistics, the metric report, and the closed-loop driver the
// Submit-based workloads share.
//
// Everything here observes the system from outside: it times calls into
// public entry points and reads counters the API already exposes
// (rr::Buffer's plane accounting, getrusage, ShimPool metrics, NodeAgent
// counters, the obs registry). Nothing is instrumented inside src/.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "common/buffer.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "runtime/function.h"

namespace rrperf {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Set-ups per run: each builds the workload from nothing and is timed to its
// first correct response; setup_s is their median. All but the last are torn
// down again, outside the timing; the last one serves the measured window.
inline constexpr int kSetupRepeats = 5;

// --- handlers ---------------------------------------------------------------

// Workload functions do real work in proportion to the payload and never
// sleep. XorHandler returns its input XOR `key`; DigestHandler returns the
// 8-byte workload::BodyChecksum of its input.
rr::runtime::NativeHandler XorHandler(uint8_t key);
rr::Result<rr::Bytes> DigestHandler(rr::ByteSpan input);
// True when `output` is exactly the 8 bytes DigestHandler returns for an
// input whose checksum is `expected`.
bool IsDigest(const rr::Buffer& output, uint64_t expected);

// --- order statistics --------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

inline double Ms(rr::Nanos d) { return rr::ToMillis(d); }
inline double Us(rr::Nanos d) { return rr::ToMillis(d) * 1000.0; }

// --- process counters --------------------------------------------------------

// One reading of the process-wide counters a window is measured against.
struct ProcSnapshot {
  rr::TimePoint at{};
  double cpu_ms = 0;  // user + sys, all threads
  long minflt = 0;
  long vcsw = 0;
  long ivcsw = 0;
  uint64_t copied = 0;     // rr::Buffer::TotalBytesCopied()
  uint64_t allocated = 0;  // rr::Buffer::TotalBytesAllocated()
};

ProcSnapshot TakeSnapshot();
// Peak resident set (VmHWM) in MiB.
double PeakRssMib();
// Threads alive in this process.
double ThreadCount();
size_t Nproc();

// Value of a registry counter (no labels); 0 if it was never registered.
uint64_t RegistryCounter(const char* name);
// Sum and count of a registry histogram (no labels).
struct HistogramTotals {
  double sum = 0;
  uint64_t count = 0;
};
HistogramTotals RegistryHistogram(const char* name);

// --- the report --------------------------------------------------------------

// Named metrics in insertion order. Printed once for people (with units)
// and once as the machine-readable last line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Human-readable lines (no JSON); `notes` are printed first.
  void Print(const std::vector<std::string>& notes) const;
  // {"correct":..,"attempted":..,"failed":..,"metrics":{...}}
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// --- per-layer samples -------------------------------------------------------

// Edge classes a workload's EdgeSamples fall into. Network edges split by
// target: a function behind a NodeAgent ingress is reached over the mux
// wire, any other network target over a loopback NetworkChannel (the data
// hose).
enum class EdgeClass { kUser, kKernel, kMux, kHose };
inline constexpr int kEdgeClasses = 4;

// Per-layer samples of the runs one traced phase completed.
struct LayerSamples {
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> transfer_phase_ms;
  std::vector<double> wasm_io_ms;  // per run, summed over edges
  std::vector<double> edge_ms[kEdgeClasses];
  std::vector<double> kernel_gbps;
  // Per run, the slowest edge of each class summed over classes: the edge
  // time on the run's blocking path.
  std::vector<double> path_edge_ms;

  // Records one completed run's stats. `submit` is the Submit() call time.
  void Add(const rr::api::RunStats& stats, rr::Nanos submit,
           const std::function<EdgeClass(const rr::telemetry::EdgeSample&)>&
               classify);
};

// Counters of the layers below the runtime, read at a window's ends.
struct LayerCounters {
  uint64_t lease_waits = 0;
  uint64_t pool_grows = 0;
  uint64_t agent_transfers = 0;
  uint64_t agent_refused = 0;
  uint64_t stream_stalls = 0;
  uint64_t wire_bytes_sent = 0;
};

LayerCounters ReadLayerCounters(
    const std::vector<std::shared_ptr<rr::core::ShimPool>>& pools,
    const rr::core::NodeAgent* agent);

// Median time of one Shim::DeliverAndInvoke of `input` through `handler`,
// on a dedicated probe instance (outside every timed window).
rr::Result<double> ProbeInvokeUs(rr::runtime::NativeHandler handler,
                                 const rr::Buffer& input, int repeats);

// Counter deltas summed over the windows a traced phase measured.
struct CounterDeltas {
  double cpu_ms = 0;
  double minflt = 0;
  double vcsw = 0;
  double ivcsw = 0;
  double copied = 0;
  double allocated = 0;
  LayerCounters layers;

  void Add(const ProcSnapshot& before, const ProcSnapshot& after);
  void Add(const LayerCounters& before, const LayerCounters& after);
};

// Adds the per-layer metrics every workload reports. Layers the workload
// bypasses read 0 because they produced no samples.
void AddLayerMetrics(Report& report, const LayerSamples& samples,
                     const CounterDeltas& deltas, double runs, double hops,
                     double invoke_us);

// --- the Submit-driven closed loop -------------------------------------------

// One set-up instance of a Submit-driven workload.
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual rr::api::Runtime& runtime() = 0;
  // Submits run `i` (inputs cycle through the workload's seeded set).
  virtual rr::Result<std::shared_ptr<rr::api::Invocation>> Submit(
      size_t i) = 0;
  // True when `output` is exactly run `i`'s expected result.
  virtual bool Check(size_t i, const rr::Buffer& output) const = 0;
  virtual EdgeClass Classify(const rr::telemetry::EdgeSample& edge) const = 0;
  virtual std::vector<std::shared_ptr<rr::core::ShimPool>> pools() const = 0;
  virtual const rr::core::NodeAgent* agent() const { return nullptr; }
};

// A Submit-driven workload: builds deployments and probes its invoke cost.
struct ClosedLoopWorkload {
  std::function<rr::Result<std::unique_ptr<Deployment>>()> setup;
  // Invocations on the blocking path that no EdgeSample covers (sources,
  // joins): counted against runtime.invoke_us in bench.coverage_pct.
  int uncovered_invokes = 0;
  std::function<rr::Result<double>()> probe_invoke_us;
  int warmup_runs = 2;
};

// Runs `workload` with one closed-loop submitter and returns its exit code
// after printing the report.
int RunClosedLoop(const Args& args, const ClosedLoopWorkload& workload);

// "label value" for a report note.
std::string Note(const std::string& label, double value);

// Prints the report (human lines, then the JSON line) and returns the exit
// code: 0 when the run completed, whether or not its outputs were correct.
int Emit(const Report& report, const std::vector<std::string>& notes,
         bool correct, uint64_t attempted, uint64_t failed);

int RunFront(const Args& args);
int RunBulk(const Args& args);
int RunFanout(const Args& args);

}  // namespace rrperf
