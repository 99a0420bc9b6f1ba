#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "app/elibrary.h"
#include "app/mesh_builder.h"
#include "cluster/topology_gen.h"
#include "core/cross_layer.h"
#include "http/message.h"
#include "mesh/http_client.h"
#include "net/payload.h"
#include "net/qdisc.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/parsim_experiment.h"

namespace perfbench {

namespace {

using namespace meshnet;

constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "events",        "scheduled",     "cancelled",   "task_heap_allocs",
    "packets",       "bytes",         "qdisc_drops", "segments",
    "retransmits",   "connections",   "mesh_requests", "mesh_retries",
    "tls_full",      "tls_resumed",   "tls_records", "cp_pushes",
    "cp_push_bytes", "cp_attempts",   "cp_skipped",  "pool_hits",
    "pool_misses",   "pool_unpooled"};

// --- fig4: the paper's §4.3 experiment -----------------------------------
// 40 RPS latency-sensitive + 40 RPS latency-insensitive page loads; the
// simulated span is shorter than the paper's so one run repeats it on
// several seeded inputs and reports medians.
constexpr double kFig4Rps = 40.0;
constexpr sim::Duration kFig4Warmup = sim::milliseconds(500);
constexpr sim::Duration kFig4Measure = sim::seconds(1);
constexpr sim::Duration kFig4Cooldown = sim::milliseconds(250);
constexpr sim::Duration kFig4Drain = sim::seconds(1);
constexpr sim::Duration kFig4Window = sim::milliseconds(100);

// --- mesh100: generated mesh with mTLS and endpoint churn ----------------
constexpr int kMeshReplicas = 2;
constexpr int kMeshFanout = 2;
constexpr std::uint64_t kMeshTopologySeed = 42;
constexpr double kMeshRps = 400.0;  // Poisson, spread over the 10 roots
constexpr sim::Duration kMeshSpan = sim::seconds(3);
constexpr sim::Duration kMeshChurnAt = sim::milliseconds(1200);
constexpr sim::Duration kMeshRestoreAt = sim::milliseconds(1800);
constexpr sim::Duration kMeshDrain = sim::milliseconds(1500);
constexpr sim::Duration kMeshWindow = sim::milliseconds(50);
constexpr sim::Duration kComputeMin = sim::microseconds(200);
constexpr sim::Duration kComputeSpan = sim::microseconds(601);

// --- parsim: the sharded parallel engine ---------------------------------
constexpr int kParsimShards = 4;
constexpr int kParsimParallelThreads = 4;
// PARSIM's topology and arrival rate, with shorter per-visit compute: at
// the experiment's default 200-800 us the most-loaded leaves run above
// capacity, and up to a fifth of leaf visits are still queued when its
// one-second drain ends. The event count does not depend on compute time.
constexpr sim::Duration kParsimComputeMin = sim::microseconds(20);
constexpr sim::Duration kParsimComputeMax = sim::microseconds(100);

/// Set-up gives the control plane this much simulated time to converge.
constexpr sim::Duration kConvergeLimit = sim::seconds(30);

// splitmix64 finalizer: per-visit compute time is a pure function of
// (seed, service, path), independent of processing order.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t counter_value(const obs::MetricRegistry& registry,
                            std::string_view name) {
  const obs::Counter* counter = registry.find_counter(name);
  return counter != nullptr ? counter->value() : 0;
}

std::uint64_t snapshot_sum(const obs::MetricsSnapshot& snapshot,
                           std::string_view name) {
  std::uint64_t sum = 0;
  for (const obs::SeriesSnapshot& series : snapshot.series) {
    if (series.name == name) sum += series.counter;
  }
  return sum;
}

void add_loop_stats(Counters& c, const sim::LoopStats& loop) {
  c.value[kEvents] += loop.executed;
  c.value[kScheduled] += loop.scheduled;
  c.value[kCancelled] += loop.cancelled;
  c.value[kTaskHeapAllocs] += loop.task_heap_allocs;
}

Counters pool_counters() {
  const net::PayloadPoolStats pool = net::payload_pool_stats();
  Counters c;
  c.value[kPoolHits] = pool.pool_hits;
  c.value[kPoolMisses] = pool.pool_misses;
  c.value[kPoolUnpooled] = pool.unpooled;
  return c;
}

/// Every layer counter of one single-simulator mesh.
Counters read_counters(sim::Simulator& sim, cluster::Cluster& cluster,
                       mesh::ControlPlane& cp) {
  Counters c = pool_counters();
  add_loop_stats(c, sim.loop_stats());
  for (net::Link* link : cluster.network().links()) {
    c.value[kPackets] += link->stats().delivered_packets;
    c.value[kBytes] += link->stats().delivered_bytes;
    c.value[kQdiscDrops] += link->qdisc().stats().dropped_packets;
  }
  for (const auto& pod : cluster.pods()) {
    const transport::HostStats& host = pod->transport().stats();
    c.value[kSegments] += host.segments_sent;
    c.value[kRetransmits] += host.retransmits;
    c.value[kConnections] += host.connections_opened;
  }
  for (const auto& sidecar : cp.sidecars()) {
    const mesh::SidecarStats& stats = sidecar->stats();
    c.value[kMeshRequests] += stats.inbound_requests + stats.outbound_requests;
    c.value[kMeshRetries] += stats.upstream_retries;
  }
  const obs::MetricRegistry& registry = cp.metrics();
  c.value[kTlsFull] = counter_value(registry, "tls_handshakes_full_total");
  c.value[kTlsResumed] = counter_value(registry, "tls_handshakes_resumed_total");
  c.value[kTlsRecords] = counter_value(registry, "tls_records_encrypted_total");
  const mesh::ControlPlane::PushChannelBytes push = cp.push_channel_bytes();
  c.value[kCpPushes] = cp.pushes();
  c.value[kCpPushBytes] = push.full_bytes + push.delta_bytes;
  c.value[kCpAttempts] = counter_value(registry, "cp_push_attempts_total");
  c.value[kCpSkipped] = counter_value(registry, "cp_push_skipped_noop");
  return c;
}

/// Endpoint-table entries per sidecar: the per-sidecar state that
/// cluster scoping and subsetting bound.
double endpoints_per_sidecar(const mesh::ControlPlane& cp) {
  std::uint64_t endpoints = 0;
  for (const auto& sidecar : cp.sidecars()) {
    for (const auto& [name, cluster_spec] : sidecar->config().clusters) {
      endpoints += cluster_spec.endpoints.size();
    }
  }
  return ratio(static_cast<double>(endpoints),
               static_cast<double>(cp.sidecars().size()));
}

/// Opens a span when tracing; a no-op (-1) otherwise.
int open_span(SpanLog* log, std::string name, int parent,
              sim::Time sim_start = 0) {
  return log != nullptr ? log->open(std::move(name), parent, sim_start) : -1;
}

void close_span(SpanLog* log, int id, sim::Time sim_end = 0,
                Attrs attrs = {}) {
  if (log != nullptr) log->close(id, sim_end, std::move(attrs));
}

/// Times one set-up call into a layer, as a span and into `total_s`.
template <typename Fn>
void timed(SpanLog* log, const char* name, int parent, double& total_s,
           Fn&& fn) {
  const int span = open_span(log, name, parent);
  const double start = wall_now();
  fn();
  total_s += wall_now() - start;
  close_span(log, span);
}

/// Runs the simulator until the control plane reports converged(), in
/// 1 ms simulated steps. False if it has not converged within the limit.
bool converge(sim::Simulator& sim, mesh::ControlPlane& cp) {
  const sim::Time limit = sim.now() + kConvergeLimit;
  for (sim::Time t = sim.now(); !cp.converged(); ) {
    if (t >= limit) return false;
    t += sim::milliseconds(1);
    sim.run_until(t);
  }
  return true;
}

/// Advances a simulator through the workload's span. Untraced, each call
/// is one run_until; traced, the span is cut into fixed simulated windows,
/// each a span with its host and layer-counter deltas.
class Stepper {
 public:
  Stepper(SpanLog* log, int parent, sim::Duration window,
          std::function<Counters()> read, std::vector<double>& window_ms)
      : log_(log),
        parent_(parent),
        window_(window),
        read_(std::move(read)),
        window_ms_(window_ms) {}

  void advance(sim::Simulator& sim, sim::Time end) {
    if (log_ == nullptr) {
      sim.run_until(end);
      return;
    }
    for (sim::Time t = sim.now(); t < end;) {
      const sim::Time next = std::min(end, t + window_);
      const int span = log_->open("sim.run_until", parent_, t);
      const Counters before = read_();
      const HostSample host_before = HostSample::now();
      sim.run_until(next);
      const HostDelta host = HostSample::now() - host_before;
      Attrs attrs = {{"host_wall_ms", host.wall_s * 1e3},
                     {"user_ms", host.user_s * 1e3},
                     {"sys_ms", host.sys_s * 1e3},
                     {"minflt", static_cast<double>(host.minflt)},
                     {"allocs", static_cast<double>(host.allocs)}};
      for (auto& attr : (read_() - before).attrs()) {
        attrs.push_back(std::move(attr));
      }
      log_->close(span, next, std::move(attrs));
      window_ms_.push_back(host.wall_s * 1e3);
      t = next;
    }
  }

 private:
  SpanLog* log_;
  int parent_;
  sim::Duration window_;
  std::function<Counters()> read_;
  std::vector<double>& window_ms_;
};

/// Routes the Tracer's simulated spans into the span log.
void capture_sim_spans(SpanLog* log, mesh::ControlPlane& cp,
                       std::string arm) {
  cp.tracer().set_retention(0);
  if (log == nullptr) return;
  cp.tracer().exporter().add_sink(
      [log, arm = std::move(arm)](const obs::SpanRecord& span) {
        log->add_sim_span(arm, span);
      });
}

/// Requests issued = completed + failed, and nothing is left in flight
/// after the drain (neither in the generator nor in its client pool).
bool conserved(const workload::OpenLoopGenerator& gen,
               const mesh::HttpClientPool& client, bool violate) {
  const std::uint64_t issued = gen.sent() + (violate ? 1 : 0);
  return issued == gen.completed() + gen.failed() &&
         gen.outstanding() == 0 && client.active_requests() == 0 &&
         client.queued_requests() == 0;
}

void count_requests(Iteration& it, const workload::OpenLoopGenerator& gen) {
  it.attempted += gen.sent();
  it.failed += gen.failed() + gen.outstanding();
}

double percentile_ms(const stats::LogHistogram& h, double p) {
  return sim::to_milliseconds(static_cast<sim::Duration>(h.percentile(p)));
}

// ---------------------------------------------------------------------------
// fig4

core::CrossLayerConfig fig4_cross_layer_config() {
  core::CrossLayerConfig config;
  config.classifier.rules = {
      core::ClassificationRule{std::string(app::Elibrary::kLsPathPrefix), "",
                               "", "", mesh::TrafficClass::kLatencySensitive},
      core::ClassificationRule{std::string(app::Elibrary::kLiPathPrefix), "",
                               "", "", mesh::TrafficClass::kScavenger},
  };
  config.classifier.default_class = mesh::TrafficClass::kLatencySensitive;
  config.priority_routed_clusters = {"reviews"};
  return config;
}

/// One arm of fig4. Members are declared in construction order so they
/// are destroyed users-first.
struct ElibraryArm {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<app::Elibrary> app;
  std::unique_ptr<core::CrossLayerController> cross_layer;
  std::unique_ptr<mesh::HttpClientPool> client;
  std::unique_ptr<workload::OpenLoopGenerator> ls;
  std::unique_ptr<workload::OpenLoopGenerator> li;
};

Iteration run_fig4(const Options& options, SpanLog* log) {
  Iteration it;
  const int root = open_span(log, "iteration", -1);
  Digest digest;
  bool setup_ok = true;
  bool conservation_ok = true;
  double ls_p99_ms[2] = {0.0, 0.0};

  for (const bool cross : {false, true}) {
    const std::string arm_name = cross ? "cross_layer_on" : "cross_layer_off";
    const int arm_span = open_span(log, "arm." + arm_name, root);
    const Counters base = pool_counters();
    http::reset_request_id_counter();
    ElibraryArm arm;

    timed(log, "setup.build", arm_span, it.build_s, [&] {
      arm.sim = std::make_unique<sim::Simulator>();
      arm.app = std::make_unique<app::Elibrary>(*arm.sim);
    });
    sim::Simulator& sim = *arm.sim;
    app::Elibrary& app = *arm.app;
    mesh::ControlPlane& cp = app.control_plane();
    capture_sim_spans(log, cp, arm_name);
    timed(log, "setup.install", arm_span, it.install_s, [&] {
      if (!cross) return;
      arm.cross_layer = std::make_unique<core::CrossLayerController>(
          cp, app.cluster(), fig4_cross_layer_config());
      arm.cross_layer->install();
    });
    timed(log, "setup.converge", arm_span, it.converge_s,
          [&] { setup_ok = converge(sim, cp) && setup_ok; });
    if (options.setup_only) {
      close_span(log, arm_span, sim.now());
      continue;
    }

    const auto read = [&] { return read_counters(sim, app.cluster(), cp); };
    const Counters run_start = read();
    const HostSample host_start = HostSample::now();
    const sim::Time t0 = sim.now();
    const int run_span = open_span(log, "run", arm_span, t0);

    mesh::HttpClientPool::Options client_options;
    client_options.max_connections = 2048;
    client_options.connection.mss = app.options().policies.transport_mss;
    arm.client = std::make_unique<mesh::HttpClientPool>(
        sim, app.client_pod().transport(), app.gateway_address(),
        client_options, "wrk2-client");

    const sim::Time measure_start = t0 + kFig4Warmup;
    const sim::Time measure_end = measure_start + kFig4Measure;
    const sim::Time traffic_end = measure_end + kFig4Cooldown;
    workload::WorkloadSpec ls;
    ls.name = "latency-sensitive";
    ls.rps = kFig4Rps;
    ls.arrival = workload::ArrivalProcess::kUniformRandom;
    ls.make_request = workload::simple_get_factory(
        "frontend", std::string(app::Elibrary::kLsPathPrefix));
    ls.start = t0;
    ls.end = traffic_end;
    ls.measure_start = measure_start;
    ls.measure_end = measure_end;
    workload::WorkloadSpec li = ls;
    li.name = "latency-insensitive";
    li.make_request = workload::simple_get_factory(
        "frontend", std::string(app::Elibrary::kLiPathPrefix));
    arm.ls = std::make_unique<workload::OpenLoopGenerator>(
        sim, *arm.client, ls, options.seed);
    arm.li = std::make_unique<workload::OpenLoopGenerator>(
        sim, *arm.client, li, options.seed + 1);
    arm.ls->start();
    arm.li->start();

    net::Link& bottleneck = app.bottleneck_link();
    Stepper stepper(log, run_span, kFig4Window, read, it.window_ms);
    stepper.advance(sim, measure_start);
    const sim::Duration busy_start = bottleneck.stats().busy_time;
    stepper.advance(sim, measure_end);
    const sim::Duration busy_end = bottleneck.stats().busy_time;
    stepper.advance(sim, traffic_end + kFig4Drain);
    close_span(log, run_span, sim.now());

    const int snapshot_span = open_span(log, "obs.snapshot", arm_span);
    const double snapshot_start = wall_now();
    const obs::MetricsSnapshot snapshot = cp.metrics().snapshot();
    it.snapshot_ms += (wall_now() - snapshot_start) * 1e3;
    close_span(log, snapshot_span);

    const int summarize_span = open_span(log, "summarize", arm_span);
    const stats::LogHistogram& ls_hist = arm.ls->recorder().histogram();
    const stats::LogHistogram& li_hist = arm.li->recorder().histogram();
    ls_p99_ms[cross ? 1 : 0] = percentile_ms(ls_hist, 99.0);
    std::uint64_t high_bytes = 0;
    std::uint64_t low_bytes = 0;
    if (const auto* prio = dynamic_cast<const net::WeightedPrioQdisc*>(
            &bottleneck.qdisc())) {
      high_bytes = prio->band_dequeued_bytes(0);
      low_bytes = prio->band_dequeued_bytes(1);
    }
    if (cross) {
      it.model = {
          {"model.ls_p50_sim_ms", percentile_ms(ls_hist, 50.0)},
          {"model.ls_p99_sim_ms", percentile_ms(ls_hist, 99.0)},
          {"model.li_p99_sim_ms", percentile_ms(li_hist, 99.0)},
          {"net.bottleneck_util",
           ratio(static_cast<double>(busy_end - busy_start),
                 static_cast<double>(kFig4Measure))},
          {"core.classified",
           static_cast<double>(
               snapshot_sum(snapshot, "ingress_classified_total"))},
          {"core.high_band_share",
           ratio(static_cast<double>(high_bytes),
                 static_cast<double>(high_bytes + low_bytes))},
          {"cluster.endpoints_per_sidecar", endpoints_per_sidecar(cp)},
      };
    }
    close_span(log, summarize_span);
    it.run += HostSample::now() - host_start;

    const Counters run_end = read();
    it.in_run += run_end - run_start;
    it.all += run_end - base;
    it.max_queue_depth =
        std::max<std::uint64_t>(it.max_queue_depth,
                                sim.loop_stats().max_queue_depth);

    conservation_ok = conserved(*arm.ls, *arm.client, options.violate) &&
                      conserved(*arm.li, *arm.client, options.violate) &&
                      conservation_ok;
    count_requests(it, *arm.ls);
    count_requests(it, *arm.li);
    digest.add(ls_hist);
    digest.add(li_hist);
    for (const workload::OpenLoopGenerator* gen : {arm.ls.get(), arm.li.get()}) {
      digest.add(gen->sent());
      digest.add(gen->completed());
      digest.add(gen->failed());
    }
    digest.add(bottleneck.stats().delivered_bytes);
    digest.add(bottleneck.qdisc().stats().dropped_packets);
    digest.add(high_bytes);
    digest.add(low_bytes);
    close_span(log, arm_span, sim.now());
  }
  close_span(log, root);

  it.checks.push_back({"setup.converged", setup_ok});
  if (!options.setup_only) {
    it.checks.push_back({"conservation", conservation_ok});
    it.checks.push_back(
        {"fig4.cross_layer_ls_p99_lower", ls_p99_ms[1] < ls_p99_ms[0]});
  }
  it.digest = digest.value();
  return it;
}

// ---------------------------------------------------------------------------
// mesh100

/// Four layers in a 1:2:3:4 width ratio: 10 roots fanning out to 40
/// leaves. The mesh is one fixed generated DAG; the run's seed drives its
/// traffic and compute times, so every seed simulates the same mesh.
cluster::GenTopology mesh100_topology() {
  cluster::FanoutSpec spec;
  spec.layer_widths = {10, 20, 30, 40};
  spec.fanout = kMeshFanout;
  return cluster::generate_layered_fanout(spec, kMeshTopologySeed);
}

cluster::MeshSpec mesh100_spec(const cluster::GenTopology& topology,
                               const cluster::TopologyMeshOptions& adapter,
                               std::uint64_t seed) {
  cluster::MeshSpec spec = cluster::mesh_spec_from_topology(topology, adapter);
  mesh::MeshPolicies& policies = spec.policies;
  policies.retry.max_retries = 1;
  policies.retry.per_try_timeout = sim::milliseconds(250);
  policies.request_timeout = sim::milliseconds(800);
  policies.transport_mss = 8960;
  policies.tls.enabled = true;  // mTLS on every hop
  policies.cp.push_latency_base = sim::milliseconds(2);
  policies.cp.push_latency_jitter = sim::milliseconds(3);
  policies.cp.ack_timeout = sim::milliseconds(200);
  policies.cp.push_loss = 0.01;
  policies.cp.delta_push = true;
  spec.gateway.enabled = true;
  spec.gateway.pod_name = "gateway";
  spec.gateway.port = 80;
  spec.external_pods.push_back(cluster::ExternalPodSpec{
      "loadgen", "", cluster::PodOptions{40e9, sim::microseconds(50), {}}});

  // Istio Sidecar-resource scoping: each sidecar sees only the services
  // it calls (leaves see none), the gateway only the roots.
  std::vector<std::string> roots;
  for (const cluster::GenService& service : topology.services) {
    if (service.layer == 0) {
      roots.push_back(cluster::topology_service_name(adapter, service.id));
    }
  }
  policies.cluster_scopes[spec.gateway.service] = roots;
  for (std::size_t i = 0; i < spec.services.size(); ++i) {
    cluster::ServiceSpec& service = spec.services[i];
    policies.cluster_scopes[service.name] = service.calls;
    const std::vector<std::string> calls = service.calls;
    const std::uint64_t visit_seed = mix64(seed ^ i);
    service.handler = [calls, visit_seed](const http::HttpRequest& request) {
      app::HandlerResult plan;
      plan.processing_delay =
          kComputeMin +
          static_cast<sim::Duration>(
              mix64(visit_seed ^ fnv1a(request.path)) %
              static_cast<std::uint64_t>(kComputeSpan));
      plan.response_bytes = 256;
      for (const std::string& target : calls) {
        plan.calls.push_back(app::SubCall{target, request.path});
      }
      return plan;
    };
  }
  return spec;
}

/// The churn victim: the second replica of the highest-id leaf that has
/// callers, so the deregistration reaches real subscribers.
std::string mesh100_victim(const cluster::GenTopology& topology,
                           const cluster::TopologyMeshOptions& adapter) {
  std::vector<int> in_degree(topology.services.size(), 0);
  for (const cluster::GenEdge& edge : topology.edges) {
    ++in_degree[static_cast<std::size_t>(edge.to)];
  }
  int victim = topology.service_count() - 1;
  for (int id = topology.service_count() - 1; id >= 0; --id) {
    const auto index = static_cast<std::size_t>(id);
    if (topology.services[index].out_edges.empty() && in_degree[index] > 0) {
      victim = id;
      break;
    }
  }
  return cluster::topology_service_name(adapter, victim) + "-v2";
}

struct MeshRun {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<cluster::BuiltMesh> mesh;
  std::unique_ptr<mesh::HttpClientPool> client;
  std::unique_ptr<workload::OpenLoopGenerator> gen;
};

Iteration run_mesh100(const Options& options, SpanLog* log) {
  Iteration it;
  const int root = open_span(log, "iteration", -1);
  const Counters base = pool_counters();
  http::reset_request_id_counter();

  cluster::TopologyMeshOptions adapter;
  adapter.replicas = kMeshReplicas;
  MeshRun run;
  cluster::GenTopology topology;
  std::string build_error;
  timed(log, "setup.build", root, it.build_s, [&] {
    run.sim = std::make_unique<sim::Simulator>();
    topology = mesh100_topology();
    cluster::MeshBuilder builder(*run.sim);
    run.mesh = builder.build(mesh100_spec(topology, adapter, options.seed),
                             &build_error);
  });
  if (run.mesh == nullptr) {
    std::fprintf(stderr, "mesh100: invalid mesh spec: %s\n",
                 build_error.c_str());
    std::exit(1);
  }
  sim::Simulator& sim = *run.sim;
  cluster::BuiltMesh& mesh = *run.mesh;
  mesh::ControlPlane& cp = mesh.control_plane();
  capture_sim_spans(log, cp, "mesh100");
  // mTLS and delta pushes are mesh policies applied at build time; this
  // workload installs no cross-layer rules.
  timed(log, "setup.install", root, it.install_s, [] {});
  bool setup_ok = true;
  timed(log, "setup.converge", root, it.converge_s,
        [&] { setup_ok = converge(sim, cp); });
  it.checks.push_back({"setup.converged", setup_ok});
  if (options.setup_only) {
    close_span(log, root, sim.now());
    return it;
  }

  const auto read = [&] { return read_counters(sim, mesh.cluster(), cp); };
  const Counters run_start = read();
  const HostSample host_start = HostSample::now();
  const sim::Time t0 = sim.now();
  const int run_span = open_span(log, "run", root, t0);

  mesh::HttpClientPool::Options pool_options;
  pool_options.max_connections = 256;
  run.client = std::make_unique<mesh::HttpClientPool>(
      sim, mesh.pod("loadgen")->transport(), mesh.gateway_address(),
      pool_options, "loadgen");
  std::vector<std::string> roots;
  for (const cluster::GenService& service : topology.services) {
    if (service.layer == 0) {
      roots.push_back(cluster::topology_service_name(adapter, service.id));
    }
  }
  workload::WorkloadSpec spec;
  spec.name = "mesh100";
  spec.rps = kMeshRps;
  spec.arrival = workload::ArrivalProcess::kPoisson;
  spec.make_request = [roots](std::uint64_t i) {
    const std::string& host = roots[i % roots.size()];
    http::HttpRequest request;
    request.path = "/r/" + host + "/" + std::to_string(i);
    request.headers.set(http::headers::kHost, host);
    // A workload-assigned id, so the sidecars' fallback id generator
    // is never consulted.
    char id[32];
    std::snprintf(id, sizeof id, "m-%010llu",
                  static_cast<unsigned long long>(i));
    request.set_request_id(id);
    return request;
  };
  spec.start = t0;
  spec.end = t0 + kMeshSpan;
  spec.measure_start = t0;
  spec.measure_end = t0 + kMeshSpan;
  run.gen = std::make_unique<workload::OpenLoopGenerator>(sim, *run.client,
                                                          spec, options.seed);
  run.gen->start();

  const std::string victim = mesh100_victim(topology, adapter);
  cluster::Cluster* cluster = &mesh.cluster();
  sim.schedule_at(t0 + kMeshChurnAt, [cluster, victim] {
    cluster->crash_pod(victim);
    cluster->deregister_pod(victim);
  });
  sim.schedule_at(t0 + kMeshRestoreAt,
                  [cluster, victim] { cluster->restart_pod(victim); });

  Stepper stepper(log, run_span, kMeshWindow, read, it.window_ms);
  stepper.advance(sim, t0 + kMeshSpan + kMeshDrain);
  close_span(log, run_span, sim.now());

  const int snapshot_span = open_span(log, "obs.snapshot", root);
  const double snapshot_start = wall_now();
  const obs::MetricsSnapshot snapshot = cp.metrics().snapshot();
  it.snapshot_ms = (wall_now() - snapshot_start) * 1e3;
  close_span(log, snapshot_span);

  const int summarize_span = open_span(log, "summarize", root);
  const stats::LogHistogram& latency = run.gen->recorder().histogram();
  bool acked = cp.converged();
  for (const auto& sidecar : cp.sidecars()) {
    if (sidecar->pod().running() &&
        cp.acked_epoch(sidecar->pod().name()) != cp.epoch()) {
      acked = false;
    }
  }
  it.model = {
      {"model.ls_p50_sim_ms", percentile_ms(latency, 50.0)},
      {"model.ls_p99_sim_ms", percentile_ms(latency, 99.0)},
      {"cluster.endpoints_per_sidecar", endpoints_per_sidecar(cp)},
  };
  close_span(log, summarize_span);
  it.run = HostSample::now() - host_start;

  const Counters run_end = read();
  it.in_run = run_end - run_start;
  it.all = run_end - base;
  it.max_queue_depth = sim.loop_stats().max_queue_depth;

  it.checks.push_back(
      {"conservation", conserved(*run.gen, *run.client, options.violate)});
  it.checks.push_back({"mesh100.final_epoch_acked", acked});
  count_requests(it, *run.gen);

  Digest digest;
  digest.add(latency);
  digest.add(run.gen->sent());
  digest.add(run.gen->completed());
  digest.add(run.gen->failed());
  digest.add(cp.epoch());
  digest.add(run_end[kCpPushes]);
  digest.add(run_end[kCpPushBytes]);
  digest.add(run_end[kTlsFull]);
  digest.add(run_end[kTlsResumed]);
  digest.add(run_end[kMeshRetries]);
  it.digest = digest.value();
  close_span(log, root, sim.now());
  return it;
}

// ---------------------------------------------------------------------------
// parsim

workload::ParsimConfig parsim_config(std::uint64_t seed, int threads) {
  workload::ParsimConfig config;
  config.seed = seed;
  config.shards = kParsimShards;
  config.threads = threads;
  config.compute_min = kParsimComputeMin;
  config.compute_max = kParsimComputeMax;
  // The benchmark is the top-level thread consumer.
  config.respect_worker_budget = false;
  return config;
}

/// Issued requests reach every leaf path exactly once: each layer's visits
/// are the previous layer's times its (uniform) out-degree, and the leaf
/// layer's visits all completed.
bool parsim_conserved(const workload::ParsimExperimentResult& result,
                      std::uint64_t seed, bool violate) {
  const workload::ParsimConfig config = parsim_config(seed, 1);
  const cluster::GenTopology topology =
      cluster::generate_layered_fanout(config.topology, seed);
  std::map<int, std::size_t> degree;  // layer -> out-degree
  for (const cluster::GenService& service : topology.services) {
    const auto [entry, inserted] =
        degree.emplace(service.layer, service.out_edges.size());
    if (!inserted && entry->second != service.out_edges.size()) return false;
  }
  std::uint64_t expected = result.requests_generated + (violate ? 1 : 0);
  for (const auto& [layer, out_degree] : degree) {
    const obs::SeriesSnapshot* visits = result.metrics.find(
        "parsim_visits", {{"layer", std::to_string(layer)}});
    if (visits == nullptr || visits->counter != expected) return false;
    if (out_degree == 0) {
      return result.leaf_completions == expected &&
             result.e2e_latency.count() == expected;
    }
    expected *= out_degree;
  }
  return false;
}

Iteration run_parsim(const Options& options, SpanLog* log) {
  Iteration it;
  const int root = open_span(log, "iteration", -1);
  // Set-up is everything a run pays before simulating: topology,
  // partition, engine and worker threads, services and links. A run
  // with an empty arrival window measures it.
  timed(log, "setup.build", root, it.build_s, [&] {
    workload::ParsimConfig empty = parsim_config(options.seed, options.threads);
    empty.duration = 0;
    workload::run_parsim_experiment(empty);
  });
  if (options.setup_only) {
    close_span(log, root);
    return it;
  }

  const workload::ParsimConfig config =
      parsim_config(options.seed, options.threads);
  const HostSample host_start = HostSample::now();
  const int run_span = open_span(log, "parallel.run_parsim_experiment", root);
  const workload::ParsimExperimentResult result =
      workload::run_parsim_experiment(config);
  it.run = HostSample::now() - host_start;
  // The experiment drains for one simulated second after its arrivals.
  close_span(log, run_span, config.duration + sim::seconds(1),
             {{"threads", static_cast<double>(options.threads)},
              {"executors", static_cast<double>(result.executors)},
              {"events", static_cast<double>(result.events_executed)},
              {"epochs", static_cast<double>(result.engine.epochs)},
              {"messages", static_cast<double>(result.engine.messages)},
              {"allocs", static_cast<double>(it.run.allocs)}});
  it.window_ms.push_back(it.run.wall_s * 1e3);

  // PARSIM packets carry no payload, so only the engine's counters move.
  add_loop_stats(it.in_run, result.loop_stats);
  it.all = it.in_run;
  it.max_queue_depth = result.loop_stats.max_queue_depth;
  it.attempted = result.requests_generated;

  const double latency_us_to_ms = 1e-3;
  it.model = {
      {"model.ls_p50_sim_ms",
       static_cast<double>(result.e2e_latency.percentile(50.0)) *
           latency_us_to_ms},
      {"model.ls_p99_sim_ms",
       static_cast<double>(result.e2e_latency.percentile(99.0)) *
           latency_us_to_ms},
      {"parallel.epochs", static_cast<double>(result.engine.epochs)},
      {"parallel.messages", static_cast<double>(result.engine.messages)},
      {"parallel.events_per_shard_epoch",
       ratio(static_cast<double>(result.events_executed),
             static_cast<double>(result.shards) *
                 static_cast<double>(result.engine.epochs))},
  };

  it.checks.push_back(
      {"conservation", parsim_conserved(result, options.seed, options.violate)});
  Digest digest;
  digest.add(result.e2e_latency);
  digest.add(result.requests_generated);
  digest.add(result.leaf_completions);
  digest.add(result.service_visits);
  digest.add(result.metrics);
  it.digest = digest.value();
  close_span(log, root);
  return it;
}

}  // namespace

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(std::string_view text) noexcept {
  for (const char c : text) add(static_cast<std::uint64_t>(c));
}

void Digest::add(const stats::LogHistogram& h) {
  add(h.count());
  add(h.min());
  add(h.max());
  add(h.mean());
  add(h.stddev());
  for (int tenth = 5; tenth <= 1000; tenth += 5) {
    add(h.percentile(tenth / 10.0));
  }
}

void Digest::add(const obs::MetricsSnapshot& snapshot) {
  for (const obs::SeriesSnapshot& series : snapshot.series) {
    add(series.key());
    add(series.counter);
    add(series.gauge);
    add(series.histogram);
  }
}

Counters& Counters::operator+=(const Counters& other) noexcept {
  for (int i = 0; i < kCounterCount; ++i) value[i] += other.value[i];
  return *this;
}

Counters Counters::operator-(const Counters& start) const noexcept {
  Counters out;
  for (int i = 0; i < kCounterCount; ++i) {
    out.value[i] = value[i] - start.value[i];
  }
  return out;
}

Attrs Counters::attrs() const {
  Attrs out;
  for (int i = 0; i < kCounterCount; ++i) {
    out.emplace_back(kCounterNames[i], static_cast<double>(value[i]));
  }
  return out;
}

bool Iteration::checks_pass() const noexcept {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

double Iteration::model_value(const std::string& name) const {
  for (const auto& [key, value] : model) {
    if (key == name) return value;
  }
  return 0.0;
}

int parallel_threads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores, 1, kParsimParallelThreads);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig4", "mesh100", "parsim"};
  return names;
}

Iteration run_workload(const std::string& workload, const Options& options,
                       SpanLog* log) {
  if (workload == "fig4") return run_fig4(options, log);
  if (workload == "mesh100") return run_mesh100(options, log);
  return run_parsim(options, log);
}

}  // namespace perfbench
