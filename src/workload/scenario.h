#pragma once

// One driver for every mesh experiment: a Scenario is a mesh (a
// cluster::MeshSpec), open-loop traffic classes, windows, a fault plan
// and opt-in probes; run_scenario() builds it on a fresh simulator,
// drives it and reads the result, as a function of the scenario, seed
// included. The paper's e-library experiment (§4.3) and its siblings,
// the LB and compute ablations and each MESHSCALE cell are presets.

#include <cstdint>
#include <map>
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
#include "workload/generator.h"

namespace meshnet::workload {

/// Starts a phase of the first traffic class `at` this offset into the
/// measured window; the phase runs to the next mark, the last one to the
/// end of the window.
struct PhaseMark {
  std::string name;
  sim::Duration at = 0;
};

struct Scenario {
  cluster::MeshSpec mesh;
  /// The pod the load generator runs on. Traffic enters through the
  /// mesh's ingress gateway when it has one, else through this pod's own
  /// outbound sidecar listener.
  std::string client_pod = std::string(app::Elibrary::kClientPod);
  /// Open-loop traffic classes; class i draws from seed + i. The run
  /// sets each class's start, end and measure window from the windows
  /// below. The e-library presets put LS first and LI second.
  std::vector<WorkloadSpec> workloads;

  sim::Duration warmup = sim::seconds(4);
  sim::Duration duration = sim::seconds(20);  ///< measured window
  sim::Duration cooldown = sim::seconds(4);
  /// The run continues this long past the last arrival so in-flight
  /// requests resolve.
  sim::Duration drain = sim::seconds(30);
  std::uint64_t seed = 42;

  /// Cross-layer prioritization; installed before the client pool.
  std::optional<core::CrossLayerConfig> cross_layer;
  /// Optimization (d) out-of-band: program the bottleneck's scheduler
  /// through the SDN coordinator. Requires cross_layer and a
  /// bottleneck_pod.
  bool sdn_out_of_band = false;

  /// Fault schedule, times relative to the start of the measured window.
  /// Control-plane actions dispatch to the mesh's control plane.
  faults::FaultPlan faults;
  /// Phase marks of the first traffic class; the first must sit at 0 so
  /// the phases partition the measured window. Samples bucket by
  /// scheduled arrival time.
  std::vector<PhaseMark> phases = {{"measured", 0}};

  /// Gateway retries get per-try 1.5 s and one retry, so one full
  /// interior failover fits; compiled and pushed before the faults.
  bool gateway_failover_budget = false;
  /// The pod whose egress vNIC is the bottleneck: its busy time is read
  /// at the window edges (two events), for bottleneck_utilization, and
  /// its drops and band bytes at the end. Empty = none.
  std::string bottleneck_pod;
  /// Discovery staleness every 500 ms (one event each), for
  /// max_staleness_ms and the cp_max_staleness_ms gauge.
  bool sample_staleness = false;
};

/// Outcomes of a traffic class over the measured window, or of the first
/// class over one phase. Latency (ns) runs from the *scheduled* arrival
/// (wrk2), and samples bucket by it: a request that arrived during a
/// fault but straggled in later still charges the fault phase.
struct WindowSummary {
  std::string name;
  std::uint64_t scheduled = 0;  ///< phases: arrivals intended in-phase
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double success_rate = 1.0;  ///< completed / (completed + errors)
  double goodput_rps = 0.0;   ///< successful completions / window length
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  stats::LogHistogram latency;
  /// Traffic classes: every request of the run, counted after the drain.
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

struct ScenarioResult {
  std::vector<WindowSummary> workloads;  ///< one per Scenario::workloads
  /// The e-library presets' classes.
  const WindowSummary& ls() const { return workloads.at(0); }
  const WindowSummary& li() const { return workloads.at(1); }
  std::vector<WindowSummary> phases;  ///< one per Scenario::phases

  double bottleneck_utilization = 0.0;  ///< 0 without a bottleneck_pod
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t high_band_bytes = 0;  ///< dequeued from the priority band
  std::uint64_t low_band_bytes = 0;

  mesh::SidecarStats sidecars;   ///< summed over every sidecar
  std::uint64_t flap_damps = 0;  ///< damped readmissions, all checkers
  /// Requests each app replica served, by pod name.
  std::map<std::string, std::uint64_t> served;
  std::uint64_t max_admission_queue = 0;  ///< deepest app queue, any replica
  /// Endpoint-table entries of each sidecar's config at the end, in
  /// sidecar order: the state cluster scoping and subsetting bound.
  std::vector<std::uint64_t> endpoints_per_sidecar;

  // Control-plane state at the end of the run.
  std::uint64_t final_epoch = 0;
  std::uint64_t cp_pushes = 0;
  std::uint64_t stale_sidecars_at_end = 0;
  bool converged = false;         ///< all sidecars on the final epoch
  sim::Time last_converged_at = 0;
  double reconverge_ms = 0.0;     ///< last recovery -> full convergence
  double max_staleness_ms = 0.0;  ///< 0 unless sample_staleness
  mesh::ControlPlane::PushChannelBytes push_bytes;
  /// Push-channel tallies when the first fault fired, so push_bytes
  /// minus these is the push cost of the fault plan.
  mesh::ControlPlane::PushChannelBytes push_bytes_at_first_fault;

  std::uint64_t client_pending = 0;  ///< active + queued in the client pool

  std::vector<faults::FaultLogEntry> fault_log;
  std::vector<mesh::MeshEvent> mesh_events;
  std::uint64_t events_executed = 0;
  sim::LoopStats loop_stats;
  obs::MetricsSnapshot metrics;  ///< the run's meshnet-metrics-v1 snapshot

  /// The phase named `name`; throws std::out_of_range if there is none.
  const WindowSummary& phase(std::string_view name) const;
};

ScenarioResult run_scenario(const Scenario& scenario);

/// Health-check transitions ("evicted" or "readmitted") in the event log.
std::uint64_t health_events(const ScenarioResult& result,
                            std::string_view detail);

// --- presets -------------------------------------------------------------

/// The e-library with LS and LI GETs through the gateway at the given
/// rates (uniform-random arrivals).
Scenario elibrary_scenario(double ls_rps, double li_rps,
                           const app::ElibraryOptions& options = {});

/// The paper's classification: user page loads are high priority,
/// analytics scans low, with priority-routed reviews replicas.
core::CrossLayerConfig elibrary_cross_layer_config();

/// FIG4, TXT-LI and ABL-COMP: both workloads at `rps`, with or without
/// the paper's cross-layer prioritization.
Scenario fig4_scenario(double rps, bool cross_layer);

/// CHAOS: reviews-v1 crashes and the ratings vNIC flaps for
/// `fault_duration` from `fault_offset`. `resilience` toggles health
/// checks, breakers and budgeted retries. Phases: before, during, after.
Scenario chaos_scenario(bool resilience,
                        sim::Duration fault_offset = sim::seconds(6),
                        sim::Duration fault_duration = sim::seconds(10));

/// CHAOS_CP: with `outage`, the control plane is down for
/// `outage_duration` from `outage_offset`; in both arms the reviews
/// replicas churn every `churn_period` through that window. Phases:
/// before, during, after.
Scenario cp_chaos_scenario(bool outage,
                           sim::Duration outage_offset = sim::seconds(5),
                           sim::Duration outage_duration = sim::seconds(30),
                           sim::Duration churn_period = sim::seconds(4));

/// OVERLOAD: compute-bound tuning with its knee near `capacity_rps`; LS
/// at `ls_rps`, LI fills `load_factor * capacity_rps`; admission control
/// on or off.
Scenario overload_scenario(double load_factor, bool admission,
                           double capacity_rps = 90.0, double ls_rps = 10.0);

/// MTLS: mesh-wide mTLS and session resumption as given; with `storm`,
/// every service pod bounces at `storm_offset`. Phases: pre, post.
Scenario mtls_scenario(bool mtls, bool session_resumption, bool storm,
                       sim::Duration storm_offset = sim::seconds(15));

/// ABL-LB: one Poisson stream at `rps` from a meshed client to a
/// three-replica server whose third replica is 10x slower, under `policy`
/// (replica weights 10/10/1 for weighted round-robin).
Scenario lb_policies_scenario(mesh::LbPolicy policy, double rps);

/// ABL-CPU: a four-worker server takes 2 ms LS jobs (priority high) and
/// 40 ms batch jobs (priority low) from a meshed client; its admission
/// queue is FIFO or priority-ordered.
Scenario compute_priority_scenario(bool priority_scheduling, double ls_rps,
                                   double li_rps);

/// MESHSCALE, one cell: `services` (>= 4) generated services in four
/// layers (1:2:3:4, fan-out 2, two replicas each) behind the ingress
/// gateway, a 20 RPS Poisson stream into every root, and one leaf
/// replica crashed and deregistered at 2/5 of `duration`, restarted at
/// 3/5. The topology is a function of `seed`; arrivals and think times
/// of (seed, cell). `delta_push` picks incremental or full config
/// pushes; `scoped` adds per-service cluster scopes and one-endpoint
/// subsets.
Scenario meshscale_scenario(int services, int cell, std::uint64_t seed,
                            sim::Duration duration, bool delta_push,
                            bool scoped);

}  // namespace meshnet::workload
