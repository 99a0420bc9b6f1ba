#pragma once

// Mesh telemetry: the metric-collection function of the control plane
// (paper §2, Fig. 1 "metric collection"). Sidecars report every proxied
// request; the sink aggregates per (source service -> upstream cluster)
// edge, which is enough to reconstruct the service call graph — the
// paper's "better visibility" in its simplest form.
//
// The sink is a thin adapter over obs::MetricRegistry: it interns the
// per-edge / per-cluster / per-kind series once and forwards every sample
// as plain counter and histogram updates, so the unified snapshot carries
// the edge metrics next to spans, events and engine counters. Series:
//
//   mesh_requests_total                       (unlabeled grand total)
//   mesh_failures_total                       (unlabeled grand total)
//   mesh_requests_total{source,upstream}
//   mesh_failures_total{source,upstream}
//   mesh_retries_total{source,upstream}
//   mesh_request_latency_ns{source,upstream,class}
//   cluster_requests_total{cluster} / cluster_failures_total{cluster}
//   mesh_events_total{kind}
//
// It also owns the per-request access log (obs::AccessLog), which the
// sidecars feed when sampling is enabled.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mesh/filter.h"
#include "obs/access_log.h"
#include "obs/event.h"
#include "obs/metric_registry.h"
#include "stats/histogram.h"
#include "sim/time.h"

namespace meshnet::mesh {

/// One proxied request, as the sidecar reports it.
struct RequestSample {
  std::string source;    ///< caller service
  std::string upstream;  ///< upstream cluster that (should have) served it
  int status = 0;        ///< final HTTP status; <= 0 means transport error
  sim::Duration latency = 0;  ///< end-to-end through the sidecar, ns
  int retries = 0;            ///< attempts beyond the first
  TrafficClass priority = TrafficClass::kDefault;
};

/// Materialized view of one edge's series (built from the registry on
/// demand; the latency histogram is the merge of the per-class series).
struct EdgeMetrics {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;  ///< 5xx or transport errors
  std::uint64_t retries = 0;
  stats::LogHistogram latency{7};  ///< nanoseconds
};

/// A resilience state transition (breaker tripped, endpoint evicted by
/// health checking, ...) reported by a sidecar. The mesh itself emits
/// kBreaker and kHealth; the fault layer logs its injections as kFault.
struct MeshEvent {
  sim::Time at = 0;
  obs::EventKind kind = obs::EventKind::kBreaker;
  std::string subject;  ///< e.g. "frontend->reviews/reviews-v1"
  std::string detail;   ///< e.g. "closed->open", "evicted"
};

class TelemetrySink {
 public:
  /// Records into `registry` when non-null, else into a private registry
  /// (unit tests); either way `registry()` exposes it.
  explicit TelemetrySink(obs::MetricRegistry* registry = nullptr);
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  void record_request(const RequestSample& sample);

  /// Aggregated metrics for one edge; nullopt if never seen.
  std::optional<EdgeMetrics> edge(const std::string& source_service,
                                  const std::string& upstream_cluster) const;

  /// All (source, upstream) edges, sorted.
  std::vector<std::pair<std::string, std::string>> edges() const;

  std::uint64_t total_requests() const noexcept;
  std::uint64_t total_failures() const noexcept;

  /// Records a resilience state transition.
  void record_event(sim::Time at, obs::EventKind kind, std::string subject,
                    std::string detail);

  const std::vector<MeshEvent>& events() const noexcept { return events_; }
  std::uint64_t event_count(obs::EventKind kind) const noexcept;

  obs::AccessLog& access_log() noexcept { return access_log_; }
  const obs::AccessLog& access_log() const noexcept { return access_log_; }

  obs::MetricRegistry& registry() noexcept { return *registry_; }
  const obs::MetricRegistry& registry() const noexcept { return *registry_; }

  /// Zeroes every series this sink feeds and forgets the edge/cluster
  /// caches, the event log and the access log. Other series in a shared
  /// registry are untouched.
  void clear();

 private:
  struct EdgeCells {
    obs::Counter* requests = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* retries = nullptr;
    /// Lazily interned per traffic class actually seen on the edge.
    std::array<obs::Histogram*, 3> latency_by_class{};
  };
  struct ClusterCells {
    obs::Counter* requests = nullptr;
    obs::Counter* failures = nullptr;
  };

  EdgeCells& edge_cells(const std::string& source, const std::string& upstream);
  ClusterCells& cluster_cells(const std::string& cluster);
  void intern_totals();

  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_ = nullptr;

  obs::Counter* requests_total_ = nullptr;
  obs::Counter* failures_total_ = nullptr;
  std::array<obs::Counter*, obs::kEventKindCount> event_counters_{};
  std::map<std::pair<std::string, std::string>, EdgeCells> edge_cells_;
  std::map<std::string, ClusterCells> cluster_cells_;
  std::vector<MeshEvent> events_;
  obs::AccessLog access_log_;
};

}  // namespace meshnet::mesh
