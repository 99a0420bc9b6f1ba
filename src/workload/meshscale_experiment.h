#pragma once

// The MESHSCALE experiment: N generated services built declaratively
// (cluster::MeshSpec -> MeshBuilder) and driven end to end — gateway,
// sidecars, apps, control plane.
//
// Where PARSIM strips the mesh away to benchmark the engine, MESHSCALE
// keeps the whole stack and asks the control-plane scaling question from
// ROADMAP item 1: what does it cost to keep N services' sidecars
// configured as the mesh grows, and how much of that cost do delta
// (xDS-style incremental) pushes, cluster scoping and deterministic
// endpoint subsetting remove?
//
// Shape: `cells` independent replicas of one N-service layered fan-out
// mesh, each on its own sim::Simulator. Cells never exchange messages —
// each is a complete mesh with its own control plane and ingress gateway
// — so they are built in cell order and then simulated one after
// another. Cells differ only in their arrival streams; together they
// model independent availability zones running the same topology.
//
// Mid-run, one replica of the last (leaf) service is crashed and
// deregistered, then restored: single-endpoint churn, the dominant
// config-push trigger in production meshes. The experiment samples the
// push channel's byte counters at the churn instant so the report can
// separate steady-state config cost from the marginal cost of one
// endpoint flapping — the number the delta-push comparison is about.
//
// Determinism rules (same spirit as PARSIM):
//   * every request carries a workload-assigned fixed-format
//     x-request-id, so the sidecars' thread_local fallback id generator
//     is never consulted and a sweep may run arms on any thread;
//   * per-visit app think time is a hash of (seed, cell, service, path),
//     not a draw from a shared stream;
//   * each cell's arrival process owns a named RNG stream.

#include <cstdint>

#include "mesh/control_plane.h"
#include "obs/metric_registry.h"
#include "sim/time.h"
#include "stats/histogram.h"

namespace meshnet::workload {

struct MeshscaleConfig {
  int services = 50;   ///< generated services per cell (>= 4)
  int replicas = 2;    ///< pods per service
  int fanout = 2;      ///< call fan-out between layers
  int cells = 2;       ///< independent mesh replicas

  std::uint64_t seed = 42;
  sim::Duration duration = sim::seconds(3);  ///< arrival window
  double root_rps = 20.0;  ///< Poisson arrival rate per root service

  /// Control-plane transport under test: incremental deltas vs full
  /// snapshots (everything else about the push channel is identical).
  bool delta_push = true;
  /// Compile each service's declared calls into a cluster scope (leaves
  /// get an empty scope, the gateway sees only the roots). Off = every
  /// sidecar sees every cluster, the legacy O(N^2) view.
  bool derive_scopes = false;
  /// Endpoint-subsetting aperture (0 = every subscriber tracks every
  /// endpoint). Only meaningful with replicas > subset_size.
  int subset_size = 0;

  /// Single-endpoint churn: crash + deregister one leaf replica at
  /// `churn_at`, restart it at `restore_at` (both must precede the end
  /// of the arrival window).
  bool churn = true;
  sim::Duration churn_at = sim::milliseconds(1200);
  sim::Duration restore_at = sim::milliseconds(1800);
  sim::Duration drain = sim::milliseconds(1500);  ///< post-window drain

  /// Per-visit app think-time window (hash-deterministic).
  sim::Duration compute_min = sim::microseconds(200);
  sim::Duration compute_max = sim::microseconds(800);
};

struct MeshscaleExperimentResult {
  // Workload surface, summed over cells.
  std::uint64_t requests_generated = 0;
  std::uint64_t responses = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  /// Client send -> response, in MICROSECONDS (us-scale keeps the
  /// histogram's double accumulators exact; see parsim_experiment.cc).
  stats::LogHistogram e2e_latency{7};
  obs::MetricsSnapshot metrics;  ///< workload series only

  // Control-plane surface, summed over cells in cell order.
  std::uint64_t epochs = 0;     ///< final config epochs
  std::uint64_t cp_pushes = 0;  ///< pushes launched into the channel
  mesh::ControlPlane::PushChannelBytes bytes;        ///< whole run
  mesh::ControlPlane::PushChannelBytes churn_bytes;  ///< churn window only
  bool converged = false;  ///< every cell fully converged at the end
  /// Restore -> full reconvergence, worst cell (0 when churn is off).
  sim::Duration churn_convergence = 0;
  std::uint64_t sidecars = 0;
  /// Sum over sidecars of their config's endpoint-table entries; the
  /// state the scoping/subsetting knobs exist to bound.
  std::uint64_t endpoint_entries = 0;
  std::uint64_t max_endpoints_per_sidecar = 0;

  // Shape.
  int services = 0;
  int cells = 0;
  std::uint64_t events_executed = 0;  ///< summed over the cells' simulators
};

MeshscaleExperimentResult run_meshscale_experiment(
    const MeshscaleConfig& config);

}  // namespace meshnet::workload
