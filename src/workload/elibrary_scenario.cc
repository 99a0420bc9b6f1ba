#include "workload/elibrary_scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "obs/engine_metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace meshnet::workload {

namespace {

/// End-to-end deadline of the fault scenarios: shorter than any fault
/// window, so a request parked on a dead replica fails at the deadline
/// instead of riding the fault out.
constexpr sim::Duration kFaultRequestTimeout = sim::milliseconds(2500);
/// Long enough for every request pinned to that deadline to resolve.
constexpr sim::Duration kFaultDrain =
    2 * kFaultRequestTimeout + sim::seconds(10);

WorkloadSummary summarize(const LatencyRecorder& rec) {
  WorkloadSummary s;
  s.completed = rec.count();
  s.errors = rec.errors();
  s.achieved_rps = rec.throughput_rps();
  s.p50_ms = rec.p50_ms();
  s.p90_ms = rec.p90_ms();
  s.p99_ms = rec.p99_ms();
  s.mean_ms = rec.mean_ms();
  return s;
}

PhaseSummary summarize_phase(std::string name, const LatencyRecorder& rec,
                             std::uint64_t scheduled) {
  PhaseSummary s;
  s.name = std::move(name);
  s.scheduled = scheduled;
  s.completed = rec.count();
  s.errors = rec.errors();
  const std::uint64_t finished = s.completed + s.errors;
  s.success_rate = finished == 0
                       ? 1.0
                       : static_cast<double>(s.completed) /
                             static_cast<double>(finished);
  s.goodput_rps = rec.throughput_rps();
  s.p50_ms = rec.p50_ms();
  s.p99_ms = rec.p99_ms();
  return s;
}

void add_stats(mesh::SidecarStats& total, const mesh::SidecarStats& s) {
  total.inbound_requests += s.inbound_requests;
  total.outbound_requests += s.outbound_requests;
  total.upstream_retries += s.upstream_retries;
  total.upstream_failures += s.upstream_failures;
  total.local_responses += s.local_responses;
  total.timeouts += s.timeouts;
  total.retries_denied_by_budget += s.retries_denied_by_budget;
  total.retries_suppressed_by_overload += s.retries_suppressed_by_overload;
  total.health_probes_answered += s.health_probes_answered;
  total.downstream_aborts += s.downstream_aborts;
  total.configs_applied += s.configs_applied;
  total.configs_rejected += s.configs_rejected;
  total.deltas_applied += s.deltas_applied;
  total.delta_mismatches += s.delta_mismatches;
  total.panic_picks += s.panic_picks;
}

/// The data-plane resilience stance of the fault scenarios: active
/// health checking, circuit breakers, per-try timeouts and budgeted
/// retries, plus the short end-to-end deadline.
void apply_resilience(mesh::MeshPolicies& policies, double retry_budget,
                      std::uint32_t budget_min_concurrency) {
  policies.retry.max_retries = 3;
  policies.retry.per_try_timeout = sim::milliseconds(500);
  policies.retry.backoff_jitter = true;
  policies.retry.backoff_max = sim::milliseconds(250);
  policies.retry.retry_budget = retry_budget;
  policies.retry.retry_budget_min_concurrency = budget_min_concurrency;
  policies.breaker.consecutive_failures = 5;
  policies.breaker.open_duration = sim::milliseconds(500);
  policies.health_check.enabled = true;
  policies.health_check.interval = sim::milliseconds(250);
  policies.health_check.timeout = sim::milliseconds(200);
  policies.health_check.unhealthy_threshold = 2;
  policies.health_check.healthy_threshold = 2;
  policies.request_timeout = kFaultRequestTimeout;
}

}  // namespace

const PhaseSummary& ElibraryScenarioResult::phase(
    std::string_view name) const {
  for (const PhaseSummary& p : phases) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no phase named " + std::string(name));
}

ElibraryScenarioResult run_elibrary_scenario(
    const ElibraryScenario& scenario) {
  const std::vector<PhaseMark>& marks = scenario.phases;
  if (marks.empty() || marks.front().at != 0) {
    throw std::invalid_argument("the first phase mark must sit at 0");
  }

  http::reset_request_id_counter();
  sim::Simulator sim;
  app::Elibrary app(sim, scenario.app);
  mesh::ControlPlane& cp = app.control_plane();
  // Spans are a per-request memory cost; retain none during load runs.
  cp.tracer().set_retention(0);

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
  faults::ChaosController chaos(sim, app.cluster(), scenario.seed);
  chaos.set_fault_hook([&cp](const faults::FaultLogEntry& entry) {
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
  for (faults::FaultEntry entry : scenario.faults.entries()) {
    entry.at += measure_start;
    sim.schedule_at(entry.at, [&chaos, entry] { chaos.apply(entry); });
  }

  std::unique_ptr<core::CrossLayerController> cross_layer;
  if (scenario.cross_layer) {
    cross_layer = std::make_unique<core::CrossLayerController>(
        cp, app.cluster(), *scenario.cross_layer);
    cross_layer->install();
    if (scenario.sdn_out_of_band) {
      cross_layer->sdn().program_link(app.bottleneck_link(),
                                      scenario.cross_layer->high_share);
    }
  }

  // --- load ----------------------------------------------------------------
  // The external client (wrk2's stand-in) connects straight to the
  // gateway with a pool large enough that it never bottlenecks the loop.
  mesh::HttpClientPool::Options client_options;
  client_options.max_connections = 2048;
  client_options.connection.mss = scenario.app.policies.transport_mss;
  mesh::HttpClientPool client(sim, app.client_pod().transport(),
                              app.gateway_address(), client_options,
                              "wrk2-client");

  WorkloadSpec ls;
  ls.name = "latency-sensitive";
  ls.rps = scenario.ls_rps;
  ls.make_request = simple_get_factory(
      "frontend", std::string(app::Elibrary::kLsPathPrefix));
  ls.start = 0;
  ls.end = traffic_end;
  ls.measure_start = measure_start;
  ls.measure_end = measure_end;

  WorkloadSpec li = ls;
  li.name = "latency-insensitive";
  li.rps = scenario.li_rps;
  li.make_request = simple_get_factory(
      "frontend", std::string(app::Elibrary::kLiPathPrefix));

  OpenLoopGenerator ls_gen(sim, client, ls, scenario.seed);
  OpenLoopGenerator li_gen(sim, client, li, scenario.seed + 1);

  // LS phase bucketing, keyed on scheduled arrival time. Observers add
  // no events, so every scenario buckets.
  std::vector<LatencyRecorder> phase_recs;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    phase_recs.emplace_back(
        measure_start + marks[i].at,
        i + 1 < marks.size() ? measure_start + marks[i + 1].at : measure_end);
  }
  std::vector<std::uint64_t> phase_scheduled(marks.size(), 0);
  ls_gen.set_arrival_observer([&](sim::Time scheduled) {
    for (std::size_t i = 0; i < phase_recs.size(); ++i) {
      if (scheduled >= phase_recs[i].measure_start() &&
          scheduled < phase_recs[i].measure_end()) {
        ++phase_scheduled[i];
      }
    }
  });
  ls_gen.set_sample_observer(
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
  if (scenario.probe_bottleneck) {
    sim.schedule_at(measure_start, [&] {
      busy_at_start = app.bottleneck_link().stats().busy_time;
    });
    sim.schedule_at(measure_end, [&] {
      busy_at_end = app.bottleneck_link().stats().busy_time;
    });
  }

  ls_gen.start();
  li_gen.start();
  sim.run_until(traffic_end + scenario.drain);

  // Settle before the final convergence read: a config delta (e.g. a cert
  // rotation) landing just before the horizon leaves its push in flight.
  // A bounded, deterministic window to drain it; a no-op when converged.
  const sim::Time settle_deadline = sim.now() + sim::seconds(5);
  while (!cp.converged() && sim.now() < settle_deadline) {
    sim.run_until(sim.now() + sim::milliseconds(100));
  }

  ElibraryScenarioResult result;
  result.ls = summarize(ls_gen.recorder());
  result.li = summarize(li_gen.recorder());
  result.ls_latency = ls_gen.recorder().histogram();
  result.li_latency = li_gen.recorder().histogram();
  for (std::size_t i = 0; i < marks.size(); ++i) {
    result.phases.push_back(
        summarize_phase(marks[i].name, phase_recs[i], phase_scheduled[i]));
  }

  net::Link& bottleneck = app.bottleneck_link();
  if (scenario.probe_bottleneck) {
    result.bottleneck_utilization =
        static_cast<double>(busy_at_end - busy_at_start) /
        static_cast<double>(measure_end - measure_start);
  }
  result.bottleneck_drops = bottleneck.qdisc().stats().dropped_packets;
  if (const auto* wp = dynamic_cast<const net::WeightedPrioQdisc*>(
          &bottleneck.qdisc())) {
    result.high_band_bytes = wp->band_dequeued_bytes(0);
    result.low_band_bytes = wp->band_dequeued_bytes(1);
  }

  for (const auto& sidecar : cp.sidecars()) {
    add_stats(result.sidecars, sidecar->stats());
    if (sidecar->health_checker() != nullptr) {
      result.flap_damps += sidecar->health_checker()->stats().flap_damps;
    }
  }

  result.final_epoch = cp.epoch();
  result.stale_sidecars_at_end = cp.stale_sidecars();
  result.converged = cp.converged() && result.stale_sidecars_at_end == 0;
  result.reconverge_ms = sim::to_seconds(cp.last_reconverge_duration()) * 1e3;
  result.max_staleness_ms = max_staleness_ms;
  if (scenario.sample_staleness) {
    cp.metrics().gauge("cp_max_staleness_ms").set(max_staleness_ms);
  }

  result.ls_requests = {ls_gen.sent(), ls_gen.completed(), ls_gen.failed()};
  result.li_requests = {li_gen.sent(), li_gen.completed(), li_gen.failed()};
  result.client_pending = client.active_requests() + client.queued_requests();

  result.fault_log = chaos.log();
  result.mesh_events = cp.telemetry().events();
  result.events_executed = sim.events_executed();
  result.loop_stats = sim.loop_stats();
  obs::export_loop_stats(result.loop_stats, cp.metrics());
  result.metrics = cp.metrics().snapshot();
  return result;
}

std::uint64_t counter_total(const obs::MetricsSnapshot& snapshot,
                            std::string_view name, const obs::Labels& match) {
  std::uint64_t total = 0;
  for (const obs::SeriesSnapshot& series : snapshot.series) {
    if (series.name != name) continue;
    const bool matches = std::all_of(
        match.begin(), match.end(), [&series](const auto& label) {
          return std::find(series.labels.begin(), series.labels.end(),
                           label) != series.labels.end();
        });
    if (matches) total += series.counter;
  }
  return total;
}

std::uint64_t health_events(const ElibraryScenarioResult& result,
                            std::string_view detail) {
  return static_cast<std::uint64_t>(std::count_if(
      result.mesh_events.begin(), result.mesh_events.end(),
      [detail](const mesh::MeshEvent& event) {
        return event.kind == obs::EventKind::kHealth &&
               event.detail == detail;
      }));
}

// --- presets ---------------------------------------------------------------

core::CrossLayerConfig elibrary_cross_layer_config() {
  core::CrossLayerConfig config;
  config.classifier.rules = {
      core::ClassificationRule{std::string(app::Elibrary::kLsPathPrefix),
                               "", "", "",
                               mesh::TrafficClass::kLatencySensitive},
      core::ClassificationRule{std::string(app::Elibrary::kLiPathPrefix),
                               "", "", "",
                               mesh::TrafficClass::kScavenger},
  };
  config.classifier.default_class = mesh::TrafficClass::kLatencySensitive;
  config.priority_routed_clusters = {"reviews"};
  return config;
}

ElibraryScenario fig4_scenario(double rps, bool cross_layer) {
  ElibraryScenario s;
  s.ls_rps = rps;
  s.li_rps = rps;
  if (cross_layer) s.cross_layer = elibrary_cross_layer_config();
  s.probe_bottleneck = true;
  return s;
}

ElibraryScenario chaos_scenario(bool resilience, sim::Duration fault_offset,
                                sim::Duration fault_duration) {
  ElibraryScenario s;
  s.li_rps = 10.0;
  s.duration = sim::seconds(24);
  s.drain = kFaultDrain;
  mesh::MeshPolicies& policies = s.app.policies;
  if (resilience) {
    // Budget sized so crash-recovery retries (a burst, but a small
    // fraction of in-flight) are admitted while a retry storm is not.
    apply_resilience(policies, 0.2, 10);
  } else {
    policies.retry.max_retries = 0;
    policies.retry.per_try_timeout = 0;
    policies.breaker.consecutive_failures = 0;  // disabled
    policies.health_check.enabled = false;
    policies.request_timeout = kFaultRequestTimeout;
  }
  // The registry is never told about the crash: detection is active
  // health checking's job.
  const sim::Duration fault_end = fault_offset + fault_duration;
  const sim::Duration flap_period = sim::seconds(2);
  s.faults.crash(fault_offset, "reviews-v1")
      .restart(fault_end, "reviews-v1")
      .flap(fault_offset + flap_period / 2, fault_end, "ratings-v1",
            flap_period, sim::milliseconds(40));
  s.phases = {{"before", 0}, {"during", fault_offset}, {"after", fault_end}};
  return s;
}

ElibraryScenario cp_chaos_scenario(bool outage, sim::Duration outage_offset,
                                   sim::Duration outage_duration,
                                   sim::Duration churn_period) {
  ElibraryScenario s;
  s.li_rps = 10.0;
  s.duration = sim::seconds(46);
  s.drain = kFaultDrain;
  s.gateway_failover_budget = true;
  s.sample_staleness = true;

  mesh::MeshPolicies& policies = s.app.policies;
  // A churn storm is not an overload: at each blind-window edge roughly
  // half the in-flight set legitimately needs one failover retry, so the
  // budget is provisioned for that.
  apply_resilience(policies, 0.5, 20);
  // Flap damping as a safety valve: the threshold sits above what the
  // alternating churn produces (~5 transitions per 10 s window).
  policies.health_check.flap_max_transitions = 8;
  policies.health_check.flap_window = sim::seconds(10);
  policies.health_check.flap_penalty = sim::seconds(3);
  // The push channel is a real simulated network: latency, ack timeouts,
  // paced reconvergence. Short-lived certs rotate (and push) several
  // times inside the run, including a forced re-issue at recovery.
  policies.cp.push_latency_base = sim::milliseconds(2);
  policies.cp.push_latency_jitter = sim::milliseconds(3);
  policies.cp.ack_timeout = sim::milliseconds(200);
  policies.cp.reconverge_pacing = sim::milliseconds(25);
  policies.cp.cert_refresh_ahead = 0.25;
  policies.certificate_lifetime = sim::seconds(20);

  const sim::Duration outage_end = outage_offset + outage_duration;
  if (outage) s.faults.cp_outage(outage_offset, outage_end);
  // Alternating churn: reviews-v1 down for the first half of each
  // period, reviews-v2 for the second — one replica is always up, but
  // the registry (restart re-registers) and health state never settle.
  const sim::Duration half = churn_period / 2;
  for (sim::Duration t = outage_offset; t + churn_period <= outage_end;
       t += churn_period) {
    s.faults.crash(t, "reviews-v1")
        .restart(t + half, "reviews-v1")
        .crash(t + half, "reviews-v2")
        .restart(t + churn_period, "reviews-v2");
  }
  s.phases = {{"before", 0}, {"during", outage_offset}, {"after", outage_end}};
  return s;
}

ElibraryScenario overload_scenario(double load_factor, bool admission,
                                   double capacity_rps, double ls_rps) {
  ElibraryScenario s;
  s.ls_rps = ls_rps;
  s.li_rps = std::max(load_factor * capacity_rps - ls_rps, 0.0);
  s.warmup = sim::seconds(3);
  s.duration = sim::seconds(10);
  s.cooldown = sim::seconds(2);
  // Classification + provenance give the admission controllers a
  // priority to act on; both arms install them, so the only difference
  // between arms is admission itself.
  s.cross_layer = elibrary_cross_layer_config();

  app::ElibraryOptions& app = s.app;
  // Compute-bound tuning: payloads small enough that the 1 Gbps ratings
  // vNIC never saturates; the frontend's seven workers (each held for
  // the whole fan-out, ~63 ms per request) are the knee.
  app.component_bytes = 2 * 1024;
  app.analytics_multiplier = 2;
  app.service_time = sim::milliseconds(20);
  app.app_max_concurrency = 7;
  mesh::MeshPolicies& policies = app.policies;
  // A short end-to-end deadline makes deadline-aware shedding observable
  // and bounds the drain tail.
  policies.request_timeout = sim::seconds(2);
  policies.retry.max_retries = 1;
  policies.retry.retry_budget = 0.2;
  mesh::AdmissionConfig& ac = policies.admission;
  ac.enabled = admission;
  ac.queue_capacity = 64;
  ac.shed_retries_first = true;
  // Four of the seven slots are reserved: an LS arrival waits only when
  // four LS requests are already in flight, while uncontended LI load
  // (~2.3 concurrent) fits the other three.
  ac.reserve_slots = 4;
  ac.limit.initial_limit = 7;
  ac.limit.min_limit = 2;
  ac.limit.max_limit = 12;
  ac.limit.window = sim::milliseconds(200);
  ac.limit.min_window_samples = 5;
  ac.limit.latency_tolerance = 2.0;
  // Every in-flight request completes or hits its deadline.
  s.drain = policies.request_timeout + sim::seconds(5);
  return s;
}

ElibraryScenario mtls_scenario(bool mtls, bool session_resumption, bool storm,
                               sim::Duration storm_offset) {
  ElibraryScenario s;
  s.li_rps = 10.0;
  s.duration = sim::seconds(30);
  s.drain = kFaultDrain;
  s.gateway_failover_budget = true;
  s.probe_bottleneck = true;
  // Resilience identical across arms, so the measured deltas are pure
  // crypto cost.
  apply_resilience(s.app.policies, 0.5, 20);
  s.app.policies.tls.enabled = mtls;
  s.app.policies.tls.session_resumption = session_resumption;
  if (storm) {
    // Every service pod bounces at once: all in-mesh connections (and
    // their TLS sessions) die. Sidecar objects — the clients' ticket
    // caches and the services' certs — survive, which is what makes
    // resumption applicable. The restart precedes the connection reset
    // at the same instant, so the links are up when the RSTs go out.
    const sim::Duration back = storm_offset + sim::milliseconds(200);
    for (const char* pod : {"frontend-v1", "details-v1", "reviews-v1",
                            "reviews-v2", "ratings-v1"}) {
      s.faults.crash(storm_offset, pod)
          .restart(back, pod)
          .reset_connections(back, pod);
    }
  }
  s.phases = {{"pre", 0}, {"post", storm_offset}};
  return s;
}

}  // namespace meshnet::workload
