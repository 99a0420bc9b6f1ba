#pragma once

// Host-side probes and the in-memory span log of the traced run.
//
// Every number here is host cost, read from outside the simulator: wall
// time from std::chrono::steady_clock, user/sys CPU and minor faults from
// getrusage(RUSAGE_SELF) (all threads of the process), and heap
// allocations from the counting operator new in alloc_counter.cc.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/span_exporter.h"
#include "sim/time.h"

namespace perfbench {

namespace obs = meshnet::obs;
namespace sim = meshnet::sim;

/// Calls to global operator new since process start.
std::uint64_t allocation_count() noexcept;

struct HostDelta {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  std::uint64_t allocs = 0;

  double cpu_s() const noexcept { return user_s + sys_s; }
  HostDelta& operator+=(const HostDelta& other) noexcept;
};

/// Process-wide host counters at one instant.
struct HostSample {
  double wall_s = 0.0;  ///< steady clock, arbitrary epoch
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  std::uint64_t allocs = 0;

  static HostSample now();
};

HostDelta operator-(const HostSample& end, const HostSample& start) noexcept;

/// Steady-clock seconds, for spans that need only wall time.
double wall_now() noexcept;

using Attrs = std::vector<std::pair<std::string, double>>;

/// Spans of one traced workload iteration, kept in memory and written out
/// once at the end. A host span covers one call the benchmark makes into
/// a layer; a sim span is a mesh::Tracer span (simulated per-service
/// duration) captured through a SpanExporter sink.
class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  /// Opens a span and returns its id; `parent` is -1 for a root span.
  int open(std::string name, int parent, sim::Time sim_start = 0);
  void close(int id, sim::Time sim_end = 0, Attrs attrs = {});

  /// Records one simulated span; `arm` names the simulator it came from.
  void add_sim_span(const std::string& arm, const obs::SpanRecord& span);

  /// Writes every span as one JSON object per line. False on I/O error.
  bool write(const std::string& path) const;

 private:
  struct HostSpan {
    int parent = -1;
    std::string name;
    double host_start_s = 0.0;
    double host_end_s = 0.0;
    sim::Time sim_start = 0;
    sim::Time sim_end = 0;
    Attrs attrs;
  };
  struct SimSpan {
    std::string arm;
    obs::SpanRecord record;
  };

  std::string workload_;
  double origin_s_;
  std::vector<HostSpan> spans_;
  std::vector<SimSpan> sim_spans_;
};

}  // namespace perfbench
