#pragma once

// Open-loop load generator (the wrk2 stand-in, DESIGN.md §2) and its
// latency recorder.
//
// The generator emits requests on a schedule independent of completions —
// the paper's methodology ("uniformly random inter-arrival times", average
// RPS swept 10..50).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "http/message.h"
#include "mesh/http_client.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace meshnet::workload {

/// Latency recording with wrk2 methodology: each request's latency is
/// measured from its *scheduled* (intended) send time, not from when the
/// client actually got around to sending it, so queueing inside the client
/// is charged to the system under test (no coordinated omission). Samples
/// are only counted inside the [measure_start, measure_end) window, which
/// excludes warm-up and cool-down as the paper does.
class LatencyRecorder {
 public:
  LatencyRecorder(sim::Time measure_start, sim::Time measure_end);

  /// Records one completed request. `scheduled` is the intended send
  /// time; `completed` is when the full response arrived.
  void record(sim::Time scheduled, sim::Time completed, bool success);

  std::uint64_t count() const noexcept { return histogram_.count(); }
  std::uint64_t errors() const noexcept { return errors_; }

  double percentile_ms(double p) const {
    return sim::to_milliseconds(
        static_cast<sim::Duration>(histogram_.percentile(p)));
  }
  double p50_ms() const { return percentile_ms(50.0); }
  double p90_ms() const { return percentile_ms(90.0); }
  double p99_ms() const { return percentile_ms(99.0); }
  double mean_ms() const {
    return histogram_.mean() / static_cast<double>(sim::kMillisecond);
  }
  double max_ms() const {
    return sim::to_milliseconds(static_cast<sim::Duration>(histogram_.max()));
  }

  /// Completed-request throughput over the measurement window.
  double throughput_rps() const;

  const stats::LogHistogram& histogram() const noexcept { return histogram_; }

  sim::Time measure_start() const noexcept { return measure_start_; }
  sim::Time measure_end() const noexcept { return measure_end_; }

 private:
  sim::Time measure_start_;
  sim::Time measure_end_;
  stats::LogHistogram histogram_{7};
  std::uint64_t errors_ = 0;
};

enum class ArrivalProcess {
  kUniformRandom,  ///< U(0, 2/rps) gaps — the paper's choice
  kPoisson,        ///< exponential gaps
};

struct WorkloadSpec {
  std::string name = "workload";
  double rps = 10.0;
  ArrivalProcess arrival = ArrivalProcess::kUniformRandom;
  /// Builds the i-th request (i starts at 0).
  std::function<http::HttpRequest(std::uint64_t)> make_request;
  sim::Time start = 0;
  sim::Time end = 0;            ///< last arrival strictly before this
  sim::Time measure_start = 0;  ///< warm-up boundary
  sim::Time measure_end = 0;    ///< cool-down boundary
};

class OpenLoopGenerator {
 public:
  /// Observes every arrival, with its scheduled (intended) send time.
  using ArrivalObserver = std::function<void(sim::Time scheduled)>;
  /// Observes every completion (success or failure). Fires in addition
  /// to the internal recorder — experiments use it to bucket samples
  /// into extra windows (e.g. before/during/after a fault).
  using SampleObserver = std::function<void(sim::Time scheduled,
                                            sim::Time completed,
                                            bool success)>;

  OpenLoopGenerator(sim::Simulator& sim, mesh::HttpClientPool& client,
                    WorkloadSpec spec, std::uint64_t seed);

  /// Schedules the first arrival. Call once.
  void start();

  void set_arrival_observer(ArrivalObserver observer) {
    arrival_observer_ = std::move(observer);
  }
  void set_sample_observer(SampleObserver observer) {
    sample_observer_ = std::move(observer);
  }

  const WorkloadSpec& spec() const noexcept { return spec_; }
  const LatencyRecorder& recorder() const noexcept { return recorder_; }
  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t outstanding() const noexcept { return sent_ - completed_ - failed_; }

 private:
  void arrive(sim::Time scheduled);
  sim::Duration next_gap();

  sim::Simulator& sim_;
  mesh::HttpClientPool& client_;
  WorkloadSpec spec_;
  sim::RngStream rng_;
  LatencyRecorder recorder_;
  ArrivalObserver arrival_observer_;
  SampleObserver sample_observer_;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

/// Convenience: a GET request factory for a fixed path prefix; request i
/// targets "<prefix>/<i % modulo>".
std::function<http::HttpRequest(std::uint64_t)> simple_get_factory(
    std::string host, std::string path_prefix, std::uint64_t modulo = 100);

}  // namespace meshnet::workload
