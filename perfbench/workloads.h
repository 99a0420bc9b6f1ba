#pragma once

// The benchmark's three workloads, each built from the layers' public
// APIs and timed from outside at the calls the benchmark makes into them.
//
//   fig4     the paper's §4.3 e-library experiment at 40 + 40 RPS, run
//            once with cross-layer prioritization off and once on.
//            Per-byte and per-packet work (net, transport, payload,
//            allocator) dominates.
//   mesh100  a generated 100-service x 2-replica layered fan-out mesh
//            with mTLS on every hop and one endpoint crashed, deregistered
//            and restored mid-run. Per-request sidecar, TLS and
//            control-plane work dominates; payload bytes are tiny.
//   parsim   the 64-service PARSIM DAG on the sharded parallel engine,
//            4 shards on Options::threads engine threads. No mesh stack.
//
// One call of run_workload() is one iteration: an empty simulator, set
// up, the workload's fixed simulated span, and its results extracted and
// checked.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metric_registry.h"
#include "stats/histogram.h"
#include "trace.h"

namespace perfbench {

/// Layer counters read at span boundaries. Every one is cumulative, so a
/// span's share is the difference of two readings.
enum CounterId : int {
  kEvents,
  kScheduled,
  kCancelled,
  kTaskHeapAllocs,
  kPackets,
  kBytes,
  kQdiscDrops,
  kSegments,
  kRetransmits,
  kConnections,
  kMeshRequests,
  kMeshRetries,
  kTlsFull,
  kTlsResumed,
  kTlsRecords,
  kCpPushes,
  kCpPushBytes,
  kCpAttempts,
  kCpSkipped,
  kPoolHits,
  kPoolMisses,
  kPoolUnpooled,
  kCounterCount
};

struct Counters {
  std::array<std::uint64_t, kCounterCount> value{};

  std::uint64_t operator[](CounterId id) const noexcept { return value[id]; }
  Counters& operator+=(const Counters& other) noexcept;
  Counters operator-(const Counters& start) const noexcept;
  /// Every counter as a span attribute.
  Attrs attrs() const;
};

/// FNV-1a over simulated outputs: the sim_digest of an iteration hashes
/// its latency histograms and model counters.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  void add(std::string_view text) noexcept;
  /// Count, extremes, moments and every half-percentile.
  void add(const meshnet::stats::LogHistogram& h);
  void add(const meshnet::obs::MetricsSnapshot& snapshot);
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

struct Check {
  std::string name;
  bool ok = false;
};

struct Options {
  std::uint64_t seed = 42;
  /// Engine worker threads for parsim (the mesh workloads are
  /// single-threaded).
  int threads = 1;
  /// Stop after set-up: the iteration only times build/install/converge.
  bool setup_only = false;
  /// Deliberately break the conservation check (the benchmark's own
  /// tests use this to show a failed check becomes failed operations).
  bool violate = false;
};

struct Iteration {
  /// Host seconds of the set-up calls (summed over fig4's two arms).
  double build_s = 0.0;
  double install_s = 0.0;
  double converge_s = 0.0;
  double setup_s() const noexcept { return build_s + install_s + converge_s; }

  /// Host cost of simulating the fixed span and extracting the results.
  HostDelta run;
  /// Host milliseconds of MetricRegistry::snapshot (inside `run`).
  double snapshot_ms = 0.0;

  Counters all;       ///< whole iteration (set-up + run)
  Counters in_run;    ///< the simulated span only
  std::uint64_t max_queue_depth = 0;

  /// Simulated requests issued, and those that failed or never finished.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Hash of the simulated latency histograms and model counters.
  std::uint64_t digest = 0;

  /// Workload-specific model values and layer readings (bottleneck
  /// utilization, classifier counts, engine stats, simulated latencies).
  Attrs model;
  /// Host milliseconds per fixed simulated window (traced runs only).
  std::vector<double> window_ms;

  bool checks_pass() const noexcept;
  double model_value(const std::string& name) const;
};

/// Engine threads of parsim's parallel arm: 4, or fewer on a smaller host.
int parallel_threads();

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Runs one iteration; `log` (may be null) turns tracing on.
Iteration run_workload(const std::string& workload, const Options& options,
                       SpanLog* log);

}  // namespace perfbench
