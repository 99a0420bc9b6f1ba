#pragma once

// The paper's experiment (§4.3) as one driver: the e-library app, a
// latency-sensitive (LS) and a latency-insensitive (LI) open-loop
// workload through the ingress gateway, and one change to the mesh —
// cross-layer prioritization, a fault plan, admission control or mTLS.
// Every e-library bench, example and test builds an ElibraryScenario
// (usually from a preset below) and calls run_elibrary_scenario(). The
// run is a function of the scenario, seed included.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/elibrary.h"
#include "core/cross_layer.h"
#include "faults/chaos.h"
#include "mesh/sidecar.h"
#include "mesh/telemetry.h"
#include "obs/metric_registry.h"
#include "sim/loop_stats.h"
#include "stats/histogram.h"

namespace meshnet::workload {

/// Starts an LS phase `at` this offset into the measured window; the
/// phase runs to the next mark, the last one to the end of the window.
struct PhaseMark {
  std::string name;
  sim::Duration at = 0;
};

struct ElibraryScenario {
  /// Offered load per workload (the paper sweeps 10..50).
  double ls_rps = 30.0;
  double li_rps = 30.0;

  sim::Duration warmup = sim::seconds(4);
  sim::Duration duration = sim::seconds(20);  ///< measured window
  sim::Duration cooldown = sim::seconds(4);
  /// The run continues this long past the last arrival so in-flight
  /// requests resolve.
  sim::Duration drain = sim::seconds(30);
  std::uint64_t seed = 42;

  /// Topology, compute model and mesh policies, already resolved.
  app::ElibraryOptions app;

  /// Cross-layer prioritization; installed before the client pool.
  std::optional<core::CrossLayerConfig> cross_layer;
  /// Optimization (d) out-of-band: program the bottleneck's scheduler
  /// through the SDN coordinator. Requires cross_layer.
  bool sdn_out_of_band = false;

  /// Fault schedule, times relative to the start of the measured window.
  /// Control-plane actions dispatch to the e-library's control plane.
  faults::FaultPlan faults;
  /// LS phase marks; the first must sit at 0 so the phases partition the
  /// measured window. LS samples bucket by scheduled arrival time.
  std::vector<PhaseMark> phases = {{"measured", 0}};

  /// Gateway retries get per-try 1.5 s and one retry, so one full
  /// interior failover fits; compiled and pushed before the faults.
  bool gateway_failover_budget = false;
  /// Bottleneck busy time at the window edges (two events), for
  /// bottleneck_utilization.
  bool probe_bottleneck = false;
  /// Discovery staleness every 500 ms (one event each), for
  /// max_staleness_ms and the cp_max_staleness_ms gauge.
  bool sample_staleness = false;
};

struct WorkloadSummary {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

/// LS-workload metrics over one phase. Samples are bucketed by
/// *scheduled* arrival time (wrk2 convention), so a request that arrived
/// during a fault but straggled in later still charges the fault phase.
struct PhaseSummary {
  std::string name;
  std::uint64_t scheduled = 0;  ///< arrivals whose intended time is in-phase
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double success_rate = 1.0;  ///< completed / (completed + errors)
  double goodput_rps = 0.0;   ///< successful completions / phase length
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// One generator's requests over the whole run, counted after the drain.
struct RequestTally {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

struct ElibraryScenarioResult {
  WorkloadSummary ls;  ///< whole measured window
  WorkloadSummary li;
  /// Latency distributions (nanoseconds, scheduled-time convention).
  stats::LogHistogram ls_latency;
  stats::LogHistogram li_latency;
  std::vector<PhaseSummary> phases;  ///< one per ElibraryScenario::phases

  double bottleneck_utilization = 0.0;  ///< 0 unless probe_bottleneck
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t high_band_bytes = 0;  ///< dequeued from the priority band
  std::uint64_t low_band_bytes = 0;

  mesh::SidecarStats sidecars;   ///< summed over every sidecar
  std::uint64_t flap_damps = 0;  ///< damped readmissions, all checkers

  // Control-plane state at the end of the run.
  std::uint64_t final_epoch = 0;
  std::uint64_t stale_sidecars_at_end = 0;
  bool converged = false;         ///< all sidecars on the final epoch
  double reconverge_ms = 0.0;     ///< last recovery -> full convergence
  double max_staleness_ms = 0.0;  ///< 0 unless sample_staleness

  RequestTally ls_requests;
  RequestTally li_requests;
  std::uint64_t client_pending = 0;  ///< active + queued in the client pool

  std::vector<faults::FaultLogEntry> fault_log;
  std::vector<mesh::MeshEvent> mesh_events;
  std::uint64_t events_executed = 0;
  sim::LoopStats loop_stats;
  obs::MetricsSnapshot metrics;  ///< the run's meshnet-metrics-v1 snapshot

  /// The phase named `name`; throws std::out_of_range if there is none.
  const PhaseSummary& phase(std::string_view name) const;
};

ElibraryScenarioResult run_elibrary_scenario(const ElibraryScenario& scenario);

/// Sum of the counter series called `name` whose labels include every
/// pair in `match` (0 when there are none).
std::uint64_t counter_total(const obs::MetricsSnapshot& snapshot,
                            std::string_view name,
                            const obs::Labels& match = {});

/// Health-check transitions ("evicted" or "readmitted") in the event log.
std::uint64_t health_events(const ElibraryScenarioResult& result,
                            std::string_view detail);

// --- presets -------------------------------------------------------------

/// The paper's classification: user page loads are high priority,
/// analytics scans low, with priority-routed reviews replicas.
core::CrossLayerConfig elibrary_cross_layer_config();

/// FIG4, TXT-LI and ABL-COMP: both workloads at `rps`, with or without
/// the paper's cross-layer prioritization.
ElibraryScenario fig4_scenario(double rps, bool cross_layer);

/// CHAOS: reviews-v1 crashes and the ratings vNIC flaps for
/// `fault_duration` from `fault_offset`. `resilience` toggles health
/// checks, breakers and budgeted retries. Phases: before, during, after.
ElibraryScenario chaos_scenario(bool resilience,
                                sim::Duration fault_offset = sim::seconds(6),
                                sim::Duration fault_duration =
                                    sim::seconds(10));

/// CHAOS_CP: with `outage`, the control plane is down for
/// `outage_duration` from `outage_offset`; in both arms the reviews
/// replicas churn every `churn_period` through that window. Phases:
/// before, during, after.
ElibraryScenario cp_chaos_scenario(
    bool outage, sim::Duration outage_offset = sim::seconds(5),
    sim::Duration outage_duration = sim::seconds(30),
    sim::Duration churn_period = sim::seconds(4));

/// OVERLOAD: compute-bound tuning with its knee near `capacity_rps`; LS
/// at `ls_rps`, LI fills `load_factor * capacity_rps`; admission control
/// on or off.
ElibraryScenario overload_scenario(double load_factor, bool admission,
                                   double capacity_rps = 90.0,
                                   double ls_rps = 10.0);

/// MTLS: mesh-wide mTLS and session resumption as given; with `storm`,
/// every service pod bounces at `storm_offset`. Phases: pre, post.
ElibraryScenario mtls_scenario(bool mtls, bool session_resumption, bool storm,
                               sim::Duration storm_offset = sim::seconds(15));

}  // namespace meshnet::workload
