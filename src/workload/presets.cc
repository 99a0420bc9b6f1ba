// The experiments as Scenario presets (declared in workload/scenario.h).

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "cluster/topology_gen.h"
#include "util/hash.h"
#include "workload/scenario.h"

namespace meshnet::workload {

namespace {

/// End-to-end deadline of the fault scenarios: shorter than any fault
/// window, so a request parked on a dead replica fails at the deadline
/// instead of riding the fault out.
constexpr sim::Duration kFaultRequestTimeout = sim::milliseconds(2500);
/// Long enough for every request pinned to that deadline to resolve.
constexpr sim::Duration kFaultDrain =
    2 * kFaultRequestTimeout + sim::seconds(10);

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

/// The ablation benches' mesh: one node, a meshed traffic source (a
/// sidecar, no app) whose outbound listener takes the load, and `server`.
Scenario client_server_scenario(cluster::ServiceSpec server) {
  Scenario s;
  s.mesh.nodes = {"node-a"};
  server.name = "server";
  server.port = 8080;
  cluster::ServiceSpec client;
  client.name = "client";
  client.port = 0;
  s.mesh.services = {client, std::move(server)};
  s.client_pod = "client-v1";
  s.warmup = sim::seconds(1);
  s.cooldown = 0;
  return s;
}

/// Four layers in a 1:2:3:4 width ratio summing to `services` (the PARSIM
/// shape); from 4 services on, the last layer keeps at least one.
std::vector<int> layer_widths(int services) {
  const int w0 = std::max(1, services / 10);
  const int w1 = std::max(1, services * 2 / 10);
  const int w2 = std::max(1, services * 3 / 10);
  return {w0, w1, w2, services - w0 - w1 - w2};
}

}  // namespace

Scenario elibrary_scenario(double ls_rps, double li_rps,
                           const app::ElibraryOptions& options) {
  Scenario s;
  s.mesh = app::elibrary_mesh_spec(options);
  s.workloads = {
      {"latency-sensitive", ls_rps, ArrivalProcess::kUniformRandom,
       simple_get_factory("frontend",
                          std::string(app::Elibrary::kLsPathPrefix))},
      {"latency-insensitive", li_rps, ArrivalProcess::kUniformRandom,
       simple_get_factory("frontend",
                          std::string(app::Elibrary::kLiPathPrefix))},
  };
  return s;
}

core::CrossLayerConfig elibrary_cross_layer_config() {
  core::CrossLayerConfig config;
  config.classifier.rules = {
      {std::string(app::Elibrary::kLsPathPrefix), "", "", "",
       mesh::TrafficClass::kLatencySensitive},
      {std::string(app::Elibrary::kLiPathPrefix), "", "", "",
       mesh::TrafficClass::kScavenger},
  };
  config.classifier.default_class = mesh::TrafficClass::kLatencySensitive;
  config.priority_routed_clusters = {"reviews"};
  return config;
}

Scenario fig4_scenario(double rps, bool cross_layer) {
  Scenario s = elibrary_scenario(rps, rps);
  if (cross_layer) s.cross_layer = elibrary_cross_layer_config();
  s.bottleneck_pod = std::string(app::Elibrary::kBottleneckPod);
  return s;
}

Scenario chaos_scenario(bool resilience, sim::Duration fault_offset,
                        sim::Duration fault_duration) {
  Scenario s = elibrary_scenario(30.0, 10.0);
  s.duration = sim::seconds(24);
  s.drain = kFaultDrain;
  mesh::MeshPolicies& policies = s.mesh.policies;
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

Scenario cp_chaos_scenario(bool outage, sim::Duration outage_offset,
                           sim::Duration outage_duration,
                           sim::Duration churn_period) {
  Scenario s = elibrary_scenario(30.0, 10.0);
  s.duration = sim::seconds(46);
  s.drain = kFaultDrain;
  s.gateway_failover_budget = true;
  s.sample_staleness = true;

  mesh::MeshPolicies& policies = s.mesh.policies;
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

Scenario overload_scenario(double load_factor, bool admission,
                           double capacity_rps, double ls_rps) {
  // Compute-bound tuning: payloads small enough that the 1 Gbps ratings
  // vNIC never saturates; the frontend's seven workers (each held for
  // the whole fan-out, ~63 ms per request) are the knee.
  app::ElibraryOptions app;
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

  Scenario s = elibrary_scenario(
      ls_rps, std::max(load_factor * capacity_rps - ls_rps, 0.0), app);
  s.warmup = sim::seconds(3);
  s.duration = sim::seconds(10);
  s.cooldown = sim::seconds(2);
  // Classification + provenance give the admission controllers a
  // priority to act on; both arms install them, so the only difference
  // between arms is admission itself.
  s.cross_layer = elibrary_cross_layer_config();
  // Every in-flight request completes or hits its deadline.
  s.drain = policies.request_timeout + sim::seconds(5);
  return s;
}

Scenario mtls_scenario(bool mtls, bool session_resumption, bool storm,
                       sim::Duration storm_offset) {
  Scenario s = elibrary_scenario(30.0, 10.0);
  s.duration = sim::seconds(30);
  s.drain = kFaultDrain;
  s.gateway_failover_budget = true;
  s.bottleneck_pod = std::string(app::Elibrary::kBottleneckPod);
  // Resilience identical across arms, so the measured deltas are pure
  // crypto cost.
  apply_resilience(s.mesh.policies, 0.5, 20);
  s.mesh.policies.tls.enabled = mtls;
  s.mesh.policies.tls.session_resumption = session_resumption;
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

Scenario lb_policies_scenario(mesh::LbPolicy policy, double rps) {
  cluster::ServiceSpec server;
  server.replicas = 3;
  for (int i = 1; i <= 3; ++i) {
    cluster::PodOptions options;
    options.labels = {{"weight", i == 3 ? "1" : "10"}};  // for WRR
    server.replica_options.push_back(options);
  }
  server.handler = [](const http::HttpRequest&) {
    app::HandlerResult plan;
    plan.processing_delay = sim::milliseconds(2);
    plan.response_bytes = 2048;
    return plan;
  };
  Scenario s = client_server_scenario(std::move(server));
  s.mesh.policies.default_lb = policy;
  s.workloads = {{"lb", rps, ArrivalProcess::kPoisson,
                  simple_get_factory("server", "/item")}};
  s.drain = sim::seconds(10);
  // server-v3 is the straggler: 10x slower from the start of the run
  // (fault times count from the window start).
  s.faults.degrade(-s.warmup, "server-v3", 10.0);
  return s;
}

Scenario compute_priority_scenario(bool priority_scheduling, double ls_rps,
                                   double li_rps) {
  cluster::ServiceSpec server;
  server.handler = [](const http::HttpRequest& request) {
    app::HandlerResult plan;
    const bool batch =
        request.headers.get_or(http::headers::kMeshPriority, "") == "low";
    plan.processing_delay =
        batch ? sim::milliseconds(40) : sim::milliseconds(2);
    plan.response_bytes = batch ? 16 * 1024 : 1024;
    return plan;
  };
  server.app.max_concurrency = 4;
  server.app.priority_scheduling = priority_scheduling;
  Scenario s = client_server_scenario(std::move(server));
  const auto jobs = [](const char* priority) {
    return [priority](std::uint64_t i) {
      http::HttpRequest request;
      request.path = "/job/" + std::to_string(i);
      request.headers.set(http::headers::kHost, "server");
      request.headers.set(http::headers::kMeshPriority, priority);
      return request;
    };
  };
  s.workloads = {{"ls", ls_rps, ArrivalProcess::kUniformRandom, jobs("high")},
                 {"li", li_rps, ArrivalProcess::kUniformRandom, jobs("low")}};
  return s;
}

Scenario meshscale_scenario(int services, int cell, std::uint64_t seed,
                            sim::Duration duration, bool delta_push,
                            bool scoped) {
  if (services < 4) throw std::invalid_argument("MESHSCALE: services < 4");
  cluster::FanoutSpec fanout;
  fanout.layer_widths = layer_widths(services);
  fanout.fanout = 2;
  const cluster::GenTopology topology =
      cluster::generate_layered_fanout(fanout, seed);
  cluster::TopologyMeshOptions adapter;
  adapter.replicas = 2;

  Scenario s;
  s.mesh = cluster::mesh_spec_from_topology(topology, adapter);
  s.seed = util::mix64(seed ^ (static_cast<std::uint64_t>(cell) << 32));
  s.warmup = 0;
  s.duration = duration;
  s.cooldown = 0;
  s.drain = sim::milliseconds(1500);

  mesh::MeshPolicies& policies = s.mesh.policies;
  policies.retry.max_retries = 1;
  policies.retry.per_try_timeout = sim::milliseconds(250);
  policies.request_timeout = sim::milliseconds(800);
  policies.transport_mss = 8960;
  // A non-trivial push channel: the convergence comparison is only
  // honest when pushes take time and can be lost.
  policies.cp.push_latency_base = sim::milliseconds(2);
  policies.cp.push_latency_jitter = sim::milliseconds(3);
  policies.cp.ack_timeout = sim::milliseconds(200);
  policies.cp.push_loss = 0.01;
  policies.cp.delta_push = delta_push;
  policies.subset.enabled = scoped;
  policies.subset.subset_size = scoped ? 1 : 0;
  s.mesh.gateway.enabled = true;
  s.mesh.gateway.pod_name = "gateway";
  s.mesh.external_pods.push_back(cluster::ExternalPodSpec{
      s.client_pod, "", cluster::PodOptions{40e9, sim::microseconds(50), {}}});

  // One Poisson stream per root; every request path is distinct, so
  // think times do not repeat.
  std::vector<std::string> roots;
  for (const cluster::GenService& service : topology.services) {
    if (service.layer != 0) continue;
    roots.push_back(cluster::topology_service_name(adapter, service.id));
    s.workloads.push_back(
        {roots.back(), 20.0, ArrivalProcess::kPoisson,
         simple_get_factory(roots.back(), "/r/" + roots.back(),
                            std::numeric_limits<std::uint64_t>::max())});
  }
  if (scoped) {
    // Explicit scopes rather than derive_cluster_scopes: a leaf that
    // calls nobody gets an EMPTY scope (zero clusters) instead of the
    // legacy see-everything default, and the gateway is scoped to the
    // roots it routes to.
    policies.cluster_scopes[s.mesh.gateway.service] = roots;
    for (const cluster::ServiceSpec& service : s.mesh.services) {
      policies.cluster_scopes[service.name] = service.calls;
    }
  }

  // Per-visit think time in [200, 800] us, a hash of (cell seed,
  // service, path): independent of processing order.
  for (std::size_t i = 0; i < s.mesh.services.size(); ++i) {
    cluster::ServiceSpec& service = s.mesh.services[i];
    const std::vector<std::string> calls = service.calls;
    const std::uint64_t visit_seed = util::mix64(s.seed ^ i);
    service.handler = [calls, visit_seed](const http::HttpRequest& request) {
      app::HandlerResult plan;
      plan.processing_delay =
          sim::microseconds(200) +
          static_cast<sim::Duration>(
              util::mix64(visit_seed ^ util::fnv1a(request.path)) %
              static_cast<std::uint64_t>(sim::microseconds(600) + 1));
      plan.response_bytes = 256;
      for (const std::string& target : calls) {
        plan.calls.push_back(app::SubCall{target, request.path});
      }
      return plan;
    };
  }

  // Single-endpoint churn, the dominant config-push trigger in
  // production meshes. The victim is the highest-id leaf somebody
  // actually calls, so the scoped arm measures a churn event with real
  // subscribers (a leaf with no parents would cost it zero pushes).
  int victim_id = 0;
  for (const cluster::GenEdge& edge : topology.edges) {
    if (topology.services[static_cast<std::size_t>(edge.to)]
            .out_edges.empty()) {
      victim_id = std::max(victim_id, edge.to);
    }
  }
  const std::string victim =
      cluster::topology_service_name(adapter, victim_id) + "-v2";
  s.faults.crash(duration * 2 / 5, victim)
      .deregister(duration * 2 / 5, victim)
      .restart(duration * 3 / 5, victim);
  return s;
}

}  // namespace meshnet::workload
