#include "workload/generator.h"

#include <utility>

namespace meshnet::workload {

LatencyRecorder::LatencyRecorder(sim::Time measure_start,
                                 sim::Time measure_end)
    : measure_start_(measure_start), measure_end_(measure_end) {}

void LatencyRecorder::record(sim::Time scheduled, sim::Time completed,
                             bool success) {
  if (scheduled < measure_start_ || scheduled >= measure_end_) return;
  if (!success) {
    ++errors_;
    return;
  }
  const sim::Duration latency =
      completed > scheduled ? completed - scheduled : 0;
  histogram_.record(static_cast<std::uint64_t>(latency));
}

double LatencyRecorder::throughput_rps() const {
  const double window = sim::to_seconds(measure_end_ - measure_start_);
  if (window <= 0.0) return 0.0;
  return static_cast<double>(histogram_.count()) / window;
}

OpenLoopGenerator::OpenLoopGenerator(sim::Simulator& sim,
                                     mesh::HttpClientPool& client,
                                     WorkloadSpec spec, std::uint64_t seed)
    : sim_(sim),
      client_(client),
      spec_(std::move(spec)),
      rng_(seed, "gen:" + spec_.name),
      recorder_(spec_.measure_start, spec_.measure_end) {}

sim::Duration OpenLoopGenerator::next_gap() {
  const double mean_s = 1.0 / spec_.rps;
  switch (spec_.arrival) {
    case ArrivalProcess::kUniformRandom:
      return sim::from_seconds(rng_.uniform(0.0, 2.0 * mean_s));
    case ArrivalProcess::kPoisson:
      return sim::from_seconds(rng_.exponential(mean_s));
  }
  return sim::from_seconds(mean_s);
}

void OpenLoopGenerator::start() {
  const sim::Time first = spec_.start + next_gap();
  sim_.schedule_at(first, [this, first] { arrive(first); });
}

void OpenLoopGenerator::arrive(sim::Time scheduled) {
  // Open loop: the next arrival is scheduled before this request's fate
  // is known.
  const sim::Time next = sim_.now() + next_gap();
  if (next < spec_.end) {
    sim_.schedule_at(next, [this, next] { arrive(next); });
  }

  http::HttpRequest request = spec_.make_request(seq_++);
  ++sent_;
  if (arrival_observer_) arrival_observer_(scheduled);
  client_.request(std::move(request),
                  [this, scheduled](std::optional<http::HttpResponse> response,
                                    const std::string& /*error*/) {
                    const bool success = response && response->ok();
                    if (success) {
                      ++completed_;
                    } else {
                      ++failed_;
                    }
                    recorder_.record(scheduled, sim_.now(), success);
                    if (sample_observer_) {
                      sample_observer_(scheduled, sim_.now(), success);
                    }
                  });
}

std::function<http::HttpRequest(std::uint64_t)> simple_get_factory(
    std::string host, std::string path_prefix, std::uint64_t modulo) {
  return [host = std::move(host), path_prefix = std::move(path_prefix),
          modulo](std::uint64_t i) {
    http::HttpRequest request;
    request.method = "GET";
    request.path = path_prefix + "/" + std::to_string(i % modulo);
    request.headers.set(http::headers::Id::kHost, host);
    return request;
  };
}

}  // namespace meshnet::workload
