#include "workload/meshscale_experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/mesh_builder.h"
#include "cluster/topology_gen.h"
#include "mesh/http_client.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace meshnet::workload {

namespace {

// splitmix64 finalizer: app think time is a pure function of
// (seed, cell, service, path), so it cannot depend on processing order.
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

/// Four layers in a 1:2:3:4 width ratio (the PARSIM shape, re-based so
/// --services sets the total exactly).
std::vector<int> layer_widths(int services) {
  if (services < 4) {
    return std::vector<int>(static_cast<std::size_t>(std::max(1, services)),
                            1);
  }
  int w0 = std::max(1, services / 10);
  int w1 = std::max(1, services * 2 / 10);
  int w2 = std::max(1, services * 3 / 10);
  int w3 = services - w0 - w1 - w2;
  while (w3 < 1) {
    if (w2 > 1) {
      --w2;
    } else if (w1 > 1) {
      --w1;
    } else {
      --w0;
    }
    ++w3;
  }
  return {w0, w1, w2, w3};
}

mesh::MeshPolicies make_policies(const MeshscaleConfig& config) {
  mesh::MeshPolicies policies;
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
  policies.cp.delta_push = config.delta_push;
  policies.subset.enabled = config.subset_size > 0;
  policies.subset.subset_size = config.subset_size;
  return policies;
}

/// One independent mesh replica on its own simulator (declared first, so
/// it outlives the mesh and pool built against it).
struct Cell {
  sim::Simulator sim;
  int index = 0;
  std::unique_ptr<cluster::BuiltMesh> mesh;
  std::unique_ptr<mesh::HttpClientPool> pool;
  std::unique_ptr<obs::MetricRegistry> registry;

  obs::Counter* generated = nullptr;
  obs::Counter* responses = nullptr;
  obs::Counter* successes = nullptr;
  obs::Counter* failures = nullptr;
  obs::Histogram* latency = nullptr;

  /// Push-channel tallies sampled at the churn instant (before the
  /// deregistration lands), so end-of-run minus this is the churn cost.
  mesh::ControlPlane::PushChannelBytes at_churn;

  struct RootGen {
    std::string host;
    int root_index = 0;
    sim::RngStream rng;
    std::uint64_t next = 0;
    RootGen(std::string host_name, int index, std::uint64_t seed, int cell)
        : host(std::move(host_name)),
          root_index(index),
          rng(seed, "meshscale-arrivals:c" + std::to_string(cell) + ":r" +
                        std::to_string(index)) {}
  };
  std::vector<std::unique_ptr<RootGen>> roots;
};

void issue_request(Cell& cell, Cell::RootGen& root) {
  cell.generated->inc();
  // Fixed-format workload-assigned id: the sidecar's fallback generator
  // (thread_local, and therefore thread-count-dependent) is never hit.
  char id[48];
  std::snprintf(id, sizeof id, "c%02d-r%03d-%010llu", cell.index,
                root.root_index,
                static_cast<unsigned long long>(root.next));
  http::HttpRequest request;
  request.path = "/r/" + root.host + "/" + std::to_string(root.next);
  request.headers.set(http::headers::kHost, root.host);
  request.set_request_id(id);
  ++root.next;

  Cell* cell_ptr = &cell;
  const sim::Time sent = cell.sim.now();
  cell.pool->request(
      std::move(request),
      [cell_ptr, sent](std::optional<http::HttpResponse> response,
                       const std::string&) {
        cell_ptr->responses->inc();
        if (response && response->ok()) {
          cell_ptr->successes->inc();
          cell_ptr->latency->record(static_cast<std::uint64_t>(
              (cell_ptr->sim.now() - sent) / sim::kMicrosecond));
        } else {
          cell_ptr->failures->inc();
        }
      });
}

void schedule_next_arrival(Cell& cell, Cell::RootGen& root, double rps,
                           sim::Time end) {
  const sim::Duration gap = std::max<sim::Duration>(
      1, sim::from_seconds(root.rng.exponential(1.0 / rps)));
  const sim::Time when = cell.sim.now() + gap;
  if (when > end) return;  // arrival window closed; the run then drains
  Cell* cell_ptr = &cell;
  Cell::RootGen* root_ptr = &root;
  cell.sim.schedule_at(when, [cell_ptr, root_ptr, rps, end] {
    issue_request(*cell_ptr, *root_ptr);
    schedule_next_arrival(*cell_ptr, *root_ptr, rps, end);
  });
}

void add(mesh::ControlPlane::PushChannelBytes& into,
         const mesh::ControlPlane::PushChannelBytes& from) {
  into.full_bytes += from.full_bytes;
  into.delta_bytes += from.delta_bytes;
  into.full_pushes += from.full_pushes;
  into.delta_pushes += from.delta_pushes;
  into.delta_fallbacks += from.delta_fallbacks;
}

mesh::ControlPlane::PushChannelBytes sub(
    const mesh::ControlPlane::PushChannelBytes& a,
    const mesh::ControlPlane::PushChannelBytes& b) {
  return {a.full_bytes - b.full_bytes, a.delta_bytes - b.delta_bytes,
          a.full_pushes - b.full_pushes, a.delta_pushes - b.delta_pushes,
          a.delta_fallbacks - b.delta_fallbacks};
}

}  // namespace

MeshscaleExperimentResult run_meshscale_experiment(
    const MeshscaleConfig& config) {
  cluster::FanoutSpec fanout;
  fanout.layer_widths = layer_widths(config.services);
  fanout.fanout = config.fanout;
  const cluster::GenTopology topology =
      cluster::generate_layered_fanout(fanout, config.seed);

  const int cell_count = std::max(1, config.cells);

  cluster::TopologyMeshOptions adapter;
  adapter.replicas = std::max(1, config.replicas);
  // Churn victim: the highest-id leaf somebody actually calls, so the
  // scoped arms measure a churn event with real subscribers (a leaf with
  // no parents would cost a scoped mesh exactly zero pushes).
  int victim_id = topology.service_count() - 1;
  std::vector<int> in_degree(topology.services.size(), 0);
  for (const cluster::GenEdge& edge : topology.edges) {
    ++in_degree[static_cast<std::size_t>(edge.to)];
  }
  for (int id = topology.service_count() - 1; id >= 0; --id) {
    if (topology.services[static_cast<std::size_t>(id)].out_edges.empty() &&
        in_degree[static_cast<std::size_t>(id)] > 0) {
      victim_id = id;
      break;
    }
  }
  const std::string victim_service =
      cluster::topology_service_name(adapter, victim_id);
  const std::string victim_pod =
      victim_service + (adapter.replicas > 1 ? "-v2" : "-v1");

  const sim::Duration compute_span =
      std::max<sim::Duration>(1, config.compute_max - config.compute_min + 1);

  std::vector<std::unique_ptr<Cell>> cells;
  for (int c = 0; c < cell_count; ++c) {
    auto cell = std::make_unique<Cell>();
    cell->index = c;
    cell->registry = std::make_unique<obs::MetricRegistry>();
    cell->generated = &cell->registry->counter("meshscale_requests_generated");
    cell->responses = &cell->registry->counter("meshscale_responses");
    cell->successes = &cell->registry->counter("meshscale_successes");
    cell->failures = &cell->registry->counter("meshscale_failures");
    // Microseconds so per-cell double accumulators merge bit-exactly.
    cell->latency = &cell->registry->histogram("meshscale_e2e_latency_us");

    cluster::MeshSpec spec = cluster::mesh_spec_from_topology(topology,
                                                              adapter);
    spec.policies = make_policies(config);
    spec.gateway.enabled = true;
    spec.gateway.pod_name = "gateway";
    spec.gateway.port = 80;
    spec.external_pods.push_back(cluster::ExternalPodSpec{
        "loadgen", "", cluster::PodOptions{40e9, sim::microseconds(50), {}}});

    if (config.derive_scopes) {
      // Explicit scopes rather than derive_cluster_scopes: a leaf that
      // calls nobody gets an EMPTY scope (zero clusters) instead of the
      // legacy see-everything default, and the gateway is scoped to the
      // roots it routes to.
      std::vector<std::string> root_names;
      for (const cluster::GenService& service : topology.services) {
        if (service.layer == 0) {
          root_names.push_back(
              cluster::topology_service_name(adapter, service.id));
        }
      }
      spec.policies.cluster_scopes[spec.gateway.service] = root_names;
      for (const cluster::ServiceSpec& service : spec.services) {
        spec.policies.cluster_scopes[service.name] = service.calls;
      }
    }

    const std::uint64_t cell_seed =
        mix64(config.seed ^ (static_cast<std::uint64_t>(c) << 32));
    for (std::size_t i = 0; i < spec.services.size(); ++i) {
      cluster::ServiceSpec& service = spec.services[i];
      const std::vector<std::string> calls = service.calls;
      const std::uint64_t visit_seed = mix64(cell_seed ^ i);
      const sim::Duration compute_min =
          std::max<sim::Duration>(1, config.compute_min);
      service.handler = [calls, visit_seed, compute_min,
                         compute_span](const http::HttpRequest& request) {
        app::HandlerResult plan;
        plan.processing_delay =
            compute_min +
            static_cast<sim::Duration>(
                mix64(visit_seed ^ fnv1a(request.path)) %
                static_cast<std::uint64_t>(compute_span));
        plan.response_bytes = 256;
        for (const std::string& target : calls) {
          plan.calls.push_back(app::SubCall{target, request.path});
        }
        return plan;
      };
    }

    cluster::MeshBuilder builder(cell->sim);
    std::string error;
    cell->mesh = builder.build(std::move(spec), &error);
    if (cell->mesh == nullptr) {
      std::fprintf(stderr, "meshscale: invalid generated spec: %s\n",
                   error.c_str());
      std::abort();
    }
    cell->mesh->control_plane().tracer().set_retention(0);

    mesh::HttpClientPool::Options pool_options;
    pool_options.max_connections = 256;
    cell->pool = std::make_unique<mesh::HttpClientPool>(
        cell->sim, cell->mesh->pod("loadgen")->transport(),
        cell->mesh->gateway_address(), pool_options,
        "loadgen:c" + std::to_string(c));

    int root_index = 0;
    for (const cluster::GenService& service : topology.services) {
      if (service.layer != 0) continue;
      cell->roots.push_back(std::make_unique<Cell::RootGen>(
          cluster::topology_service_name(adapter, service.id), root_index,
          config.seed, c));
      ++root_index;
    }
    cells.push_back(std::move(cell));
  }

  for (auto& cell : cells) {
    for (auto& root : cell->roots) {
      schedule_next_arrival(*cell, *root, config.root_rps, config.duration);
    }
    if (config.churn) {
      Cell* cell_ptr = cell.get();
      cell->sim.schedule_at(config.churn_at, [cell_ptr, victim_pod] {
        // Sample the channel first: everything after this instant is the
        // marginal cost of one endpoint flapping.
        cell_ptr->at_churn =
            cell_ptr->mesh->control_plane().push_channel_bytes();
        cell_ptr->mesh->cluster().crash_pod(victim_pod);
        cell_ptr->mesh->cluster().deregister_pod(victim_pod);
      });
      cell->sim.schedule_at(config.restore_at, [cell_ptr, victim_pod] {
        cell_ptr->mesh->cluster().restart_pod(victim_pod);
      });
    }
  }

  for (auto& cell : cells) cell->sim.run_until(config.duration + config.drain);

  obs::MetricRegistry merged;
  for (const auto& cell : cells) merged.merge(*cell->registry);

  MeshscaleExperimentResult result;
  result.metrics = merged.snapshot();
  if (const obs::Counter* c =
          merged.find_counter("meshscale_requests_generated")) {
    result.requests_generated = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("meshscale_responses")) {
    result.responses = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("meshscale_successes")) {
    result.successes = c->value();
  }
  if (const obs::Counter* c = merged.find_counter("meshscale_failures")) {
    result.failures = c->value();
  }
  if (const obs::Histogram* h =
          merged.find_histogram("meshscale_e2e_latency_us")) {
    result.e2e_latency = h->data();
  }

  result.converged = true;
  for (const auto& cell : cells) {
    mesh::ControlPlane& cp = cell->mesh->control_plane();
    const mesh::ControlPlane::PushChannelBytes end = cp.push_channel_bytes();
    add(result.bytes, end);
    if (config.churn) add(result.churn_bytes, sub(end, cell->at_churn));
    result.epochs += cp.epoch();
    result.cp_pushes += cp.pushes();
    if (!cp.converged()) result.converged = false;
    if (config.churn) {
      const sim::Time converged_at = cp.last_converged_at();
      if (converged_at >= config.restore_at) {
        result.churn_convergence = std::max(
            result.churn_convergence, converged_at - config.restore_at);
      } else {
        result.converged = false;  // never reconverged after the restore
      }
    }
    for (const auto& sidecar : cp.sidecars()) {
      std::uint64_t entries = 0;
      for (const auto& [name, spec] : sidecar->config().clusters) {
        entries += spec.endpoints.size();
      }
      result.endpoint_entries += entries;
      result.max_endpoints_per_sidecar =
          std::max(result.max_endpoints_per_sidecar, entries);
      ++result.sidecars;
    }
  }

  result.services = topology.service_count();
  result.cells = cell_count;
  for (const auto& cell : cells) {
    result.events_executed += cell->sim.events_executed();
  }
  return result;
}

}  // namespace meshnet::workload
