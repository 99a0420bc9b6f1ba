// Quickstart: build a two-service mesh, send one traced request through
// it, and print what the mesh observed.
//
//   client -> [gateway sidecar] -> frontend sidecar -> frontend app
//                                     '-> backend sidecar -> backend app
//
// Demonstrates the public API end to end: the declarative MeshSpec /
// MeshBuilder construction path, microservice handlers, an HTTP client,
// distributed tracing and telemetry.

#include <cstdio>

#include "app/mesh_builder.h"
#include "mesh/http_client.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  util::set_log_level(util::parse_log_level(flags.get_or("log", "warn")));

  sim::Simulator sim;

  // --- 1. The whole mesh as data -------------------------------------
  cluster::MeshSpec spec;
  spec.nodes = {"node-a"};
  spec.gateway.enabled = true;
  spec.gateway.pod_name = "gateway";
  spec.gateway.port = 80;

  cluster::ServiceSpec frontend;
  frontend.name = "frontend";
  frontend.calls = {"backend"};
  frontend.handler = [](const http::HttpRequest&) {
    app::HandlerResult plan;
    plan.processing_delay = sim::microseconds(200);
    plan.calls.push_back(app::SubCall{"backend", "/data"});
    plan.response_bytes = 256;
    return plan;
  };
  cluster::ServiceSpec backend;
  backend.name = "backend";
  backend.handler = [](const http::HttpRequest&) {
    app::HandlerResult plan;
    plan.processing_delay = sim::microseconds(100);
    plan.response_bytes = 1024;
    return plan;
  };
  spec.services = {frontend, backend};
  spec.external_pods.push_back(cluster::ExternalPodSpec{"client", "", {}});

  // --- 2. Build it: cluster, pods, sidecars, control plane, apps -----
  auto mesh = cluster::MeshBuilder(sim).build(std::move(spec));
  mesh::ControlPlane& control_plane = mesh->control_plane();

  // --- 3. A client outside the mesh ----------------------------------
  mesh::HttpClientPool client(sim, mesh->pod("client")->transport(),
                              mesh->gateway_address(), {}, "client");

  http::HttpRequest request;
  request.path = "/hello";
  request.headers.set(http::headers::kHost, "frontend");

  int status = 0;
  std::size_t body_bytes = 0;
  sim::Time done_at = 0;
  client.request(std::move(request),
                 [&](std::optional<http::HttpResponse> response,
                     const std::string& error) {
                   if (response) {
                     status = response->status;
                     body_bytes = response->body_size();
                   } else {
                     std::fprintf(stderr, "request failed: %s\n",
                                  error.c_str());
                   }
                   done_at = sim.now();
                 });

  // run_until rather than run(): the control plane re-schedules its
  // periodic discovery poll forever, so the event queue never drains.
  sim.run_until(sim::seconds(5));

  std::printf("response: HTTP %d, %zu body bytes, %.3f ms end-to-end\n",
              status, body_bytes, sim::to_milliseconds(done_at));

  // --- 4. What the mesh saw ------------------------------------------
  std::printf("\ntrace spans (%zu):\n",
              control_plane.tracer().span_count());
  for (const mesh::Span& span : control_plane.tracer().spans()) {
    std::printf("  [%-8s] %-22s %8.3f ms  trace=%s\n", span.service.c_str(),
                span.operation.c_str(),
                sim::to_milliseconds(span.duration()),
                span.trace_id.c_str());
  }

  std::printf("\ntelemetry edges:\n");
  for (const auto& [src, dst] : control_plane.telemetry().edges()) {
    const auto edge = control_plane.telemetry().edge(src, dst);
    if (!edge) continue;
    std::printf("  %-10s -> %-10s requests=%llu failures=%llu p50=%.3f ms\n",
                src.c_str(), dst.c_str(),
                static_cast<unsigned long long>(edge->requests),
                static_cast<unsigned long long>(edge->failures),
                sim::to_milliseconds(static_cast<sim::Duration>(
                    edge->latency.percentile(50))));
  }
  return status == 200 ? 0 : 1;
}
