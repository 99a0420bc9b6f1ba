#include "workload/scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "app/mesh_builder.h"
#include "obs/engine_metrics.h"
#include "sim/simulator.h"

namespace meshnet::workload {

namespace {

WindowSummary summarize(std::string name, const LatencyRecorder& rec) {
  WindowSummary s;
  s.name = std::move(name);
  s.completed = rec.count();
  s.errors = rec.errors();
  const auto finished = static_cast<double>(s.completed + s.errors);
  s.success_rate =
      finished > 0 ? static_cast<double>(s.completed) / finished : 1.0;
  s.goodput_rps = rec.throughput_rps();
  s.p50_ms = rec.p50_ms();
  s.p90_ms = rec.p90_ms();
  s.p99_ms = rec.p99_ms();
  s.mean_ms = rec.mean_ms();
  s.latency = rec.histogram();
  return s;
}

}  // namespace

const WindowSummary& ScenarioResult::phase(std::string_view name) const {
  for (const WindowSummary& p : phases) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no phase named " + std::string(name));
}

ScenarioResult run_scenario(const Scenario& scenario) {
  const std::vector<PhaseMark>& marks = scenario.phases;
  if (marks.empty() || marks.front().at != 0) {
    throw std::invalid_argument("the first phase mark must sit at 0");
  }
  if (scenario.workloads.empty()) throw std::invalid_argument("no traffic");

  http::reset_request_id_counter();
  sim::Simulator sim;
  std::string error;
  const std::unique_ptr<cluster::BuiltMesh> mesh =
      cluster::MeshBuilder(sim).build(scenario.mesh, &error);
  if (mesh == nullptr) {
    throw std::invalid_argument("invalid scenario mesh: " + error);
  }
  mesh::ControlPlane& cp = mesh->control_plane();
  // Spans are a per-request memory cost; retain none during load runs.
  cp.tracer().set_retention(0);
  const auto pod = [&mesh](const std::string& name) -> cluster::Pod& {
    cluster::Pod* found = mesh->pod(name);
    if (found == nullptr) throw std::invalid_argument("no pod " + name);
    return *found;
  };
  cluster::Pod& client_pod = pod(scenario.client_pod);
  net::Link* bottleneck = scenario.bottleneck_pod.empty()
                              ? nullptr
                              : &pod(scenario.bottleneck_pod).egress_link();

  if (scenario.gateway_failover_budget) {
    // Hierarchical timeout budget, compiled per sidecar: the edge hop
    // outlives one full interior failover (per-try timeout + retry at the
    // frontend); interior hops keep the tight mesh-wide per-try timeout.
    cp.set_compile_mutator([](const std::string&, mesh::SidecarConfig& config) {
      if (config.gateway_mode) {
        config.retry.per_try_timeout = sim::milliseconds(1500);
        config.retry.max_retries = 1;
      }
    });
    cp.push_config();
  }

  const sim::Time measure_start = scenario.warmup;
  const sim::Time measure_end = scenario.warmup + scenario.duration;
  const sim::Time traffic_end = measure_end + scenario.cooldown;

  // --- the fault schedule -------------------------------------------------
  faults::ChaosController chaos(sim, mesh->cluster(), scenario.seed);
  ScenarioResult result;
  bool fault_seen = false;
  chaos.set_fault_hook([&](const faults::FaultLogEntry& entry) {
    if (!fault_seen) {
      fault_seen = true;
      result.push_bytes_at_first_fault = cp.push_channel_bytes();
    }
    cp.telemetry().record_event(
        entry.at, obs::EventKind::kFault, entry.target,
        std::string(faults::fault_action_name(entry.action)));
  });
  // faults/ cannot see mesh/: the CP fault actions dispatch through
  // hooks wired here, in the layer that sees both.
  faults::CpHooks hooks;
  hooks.crash = [&cp] {
    if (cp.crashed()) return false;
    cp.crash();
    return true;
  };
  hooks.restart = [&cp] {
    if (!cp.crashed()) return false;
    cp.recover();
    return true;
  };
  hooks.set_partitioned = [&cp](const std::string& pod, bool partitioned) {
    cp.set_partitioned(pod, partitioned);
    return true;
  };
  hooks.set_push_loss = [&cp](double probability) {
    cp.set_push_loss(probability);
    return true;
  };
  chaos.set_control_plane_hooks(std::move(hooks));
  chaos.schedule(scenario.faults, measure_start);

  std::unique_ptr<core::CrossLayerController> cross_layer;
  if (scenario.cross_layer) {
    cross_layer = std::make_unique<core::CrossLayerController>(
        cp, mesh->cluster(), *scenario.cross_layer);
    cross_layer->install();
    if (scenario.sdn_out_of_band) {
      cross_layer->sdn().program_link(*bottleneck,
                                      scenario.cross_layer->high_share);
    }
  }

  // --- load ----------------------------------------------------------------
  // The client (wrk2's stand-in) has a pool large enough that it never
  // bottlenecks the loop.
  mesh::HttpClientPool::Options client_options;
  client_options.max_connections = 2048;
  client_options.connection.mss = scenario.mesh.policies.transport_mss;
  const mesh::Sidecar* client_sidecar = cp.sidecar_for(scenario.client_pod);
  if (!scenario.mesh.gateway.enabled && client_sidecar == nullptr) {
    throw std::invalid_argument("no way in: no gateway, no client sidecar");
  }
  const net::SocketAddress target =
      scenario.mesh.gateway.enabled
          ? mesh->gateway_address()
          : net::SocketAddress{client_pod.ip(),
                               client_sidecar->config().outbound_port};
  mesh::HttpClientPool client(sim, client_pod.transport(), target,
                              client_options, "wrk2-client");

  std::vector<std::unique_ptr<OpenLoopGenerator>> gens;
  for (std::size_t i = 0; i < scenario.workloads.size(); ++i) {
    WorkloadSpec spec = scenario.workloads[i];
    spec.start = 0;
    spec.end = traffic_end;
    spec.measure_start = measure_start;
    spec.measure_end = measure_end;
    gens.push_back(std::make_unique<OpenLoopGenerator>(sim, client,
                                                       std::move(spec),
                                                       scenario.seed + i));
  }

  // Phase bucketing of the first class, keyed on scheduled arrival time.
  // Observers add no events, so every scenario buckets.
  std::vector<LatencyRecorder> phase_recs;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    phase_recs.emplace_back(
        measure_start + marks[i].at,
        i + 1 < marks.size() ? measure_start + marks[i + 1].at : measure_end);
  }
  std::vector<std::uint64_t> phase_scheduled(marks.size(), 0);
  gens.front()->set_arrival_observer([&](sim::Time scheduled) {
    for (std::size_t i = 0; i < phase_recs.size(); ++i) {
      phase_scheduled[i] += scheduled >= phase_recs[i].measure_start() &&
                            scheduled < phase_recs[i].measure_end();
    }
  });
  gens.front()->set_sample_observer(
      [&](sim::Time scheduled, sim::Time completed, bool success) {
        for (LatencyRecorder& rec : phase_recs) {
          rec.record(scheduled, completed, success);
        }
      });

  // --- probes (each adds events, so each is opt-in) ------------------------
  double max_staleness_ms = 0.0;
  const sim::Duration sample_interval = sim::milliseconds(500);
  std::function<void()> sample = [&] {
    const double staleness_ms =
        sim::to_seconds(cp.discovery_staleness()) * 1e3;
    max_staleness_ms = std::max(max_staleness_ms, staleness_ms);
    // Keep the live gauge honest through an outage: the control plane's
    // own poll loop (which normally maintains it) is down.
    cp.metrics().gauge("cp_discovery_staleness_ms").set(staleness_ms);
    if (sim.now() + sample_interval <= traffic_end) {
      sim.schedule_after(sample_interval, [&] { sample(); });
    }
  };
  if (scenario.sample_staleness) {
    sim.schedule_at(measure_start, [&] { sample(); });
  }
  // Bottleneck busy time at the window edges, so utilization reflects the
  // measured window, not the drain.
  sim::Duration busy_at_start = 0;
  sim::Duration busy_at_end = 0;
  if (bottleneck != nullptr) {
    sim.schedule_at(measure_start,
                    [&] { busy_at_start = bottleneck->stats().busy_time; });
    sim.schedule_at(measure_end,
                    [&] { busy_at_end = bottleneck->stats().busy_time; });
  }

  for (const auto& gen : gens) gen->start();
  sim.run_until(traffic_end + scenario.drain);

  // Settle before the final convergence read: a config delta (e.g. a cert
  // rotation) just before the horizon leaves its push in flight. Bounded
  // and deterministic; a no-op when converged.
  const sim::Time settle_deadline = sim.now() + sim::seconds(5);
  while (!cp.converged() && sim.now() < settle_deadline) {
    sim.run_until(sim.now() + sim::milliseconds(100));
  }

  for (const auto& gen : gens) {
    result.workloads.push_back(summarize(gen->spec().name, gen->recorder()));
    result.workloads.back().sent = gen->sent();
    result.workloads.back().succeeded = gen->completed();
    result.workloads.back().failed = gen->failed();
  }
  for (std::size_t i = 0; i < marks.size(); ++i) {
    result.phases.push_back(summarize(marks[i].name, phase_recs[i]));
    result.phases.back().scheduled = phase_scheduled[i];
  }

  if (bottleneck != nullptr) {
    result.bottleneck_utilization =
        static_cast<double>(busy_at_end - busy_at_start) /
        static_cast<double>(measure_end - measure_start);
    result.bottleneck_drops = bottleneck->qdisc().stats().dropped_packets;
    if (const auto* wp = dynamic_cast<const net::WeightedPrioQdisc*>(
            &bottleneck->qdisc())) {
      result.high_band_bytes = wp->band_dequeued_bytes(0);
      result.low_band_bytes = wp->band_dequeued_bytes(1);
    }
  }

  for (const auto& sidecar : cp.sidecars()) {
    result.sidecars += sidecar->stats();
    if (sidecar->health_checker() != nullptr) {
      result.flap_damps += sidecar->health_checker()->stats().flap_damps;
    }
    std::uint64_t entries = 0;
    for (const auto& [name, spec] : sidecar->config().clusters) {
      entries += spec.endpoints.size();
    }
    result.endpoints_per_sidecar.push_back(entries);
  }
  for (const auto& app : mesh->microservices()) {
    result.served[app->pod().name()] = app->requests_served();
    result.max_admission_queue =
        std::max(result.max_admission_queue, app->max_admission_queue_seen());
  }

  result.final_epoch = cp.epoch();
  result.cp_pushes = cp.pushes();
  result.stale_sidecars_at_end = cp.stale_sidecars();
  result.converged = cp.converged() && result.stale_sidecars_at_end == 0;
  result.last_converged_at = cp.last_converged_at();
  result.reconverge_ms = sim::to_seconds(cp.last_reconverge_duration()) * 1e3;
  result.max_staleness_ms = max_staleness_ms;
  if (scenario.sample_staleness) {
    cp.metrics().gauge("cp_max_staleness_ms").set(max_staleness_ms);
  }
  result.push_bytes = cp.push_channel_bytes();
  result.client_pending = client.active_requests() + client.queued_requests();

  result.fault_log = chaos.log();
  result.mesh_events = cp.telemetry().events();
  result.events_executed = sim.events_executed();
  result.loop_stats = sim.loop_stats();
  obs::export_loop_stats(result.loop_stats, cp.metrics());
  result.metrics = cp.metrics().snapshot();
  return result;
}

std::uint64_t health_events(const ScenarioResult& result,
                            std::string_view detail) {
  return static_cast<std::uint64_t>(std::ranges::count_if(
      result.mesh_events, [detail](const mesh::MeshEvent& event) {
        return event.kind == obs::EventKind::kHealth && event.detail == detail;
      }));
}

}  // namespace meshnet::workload
