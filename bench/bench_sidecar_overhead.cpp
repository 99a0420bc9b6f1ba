// TXT-OVH — reproduces the paper's §3.6 data point: the two sidecars
// interposed in each service-to-service call add latency "in the range of
// 3 msec at the 99th percentile for Istio".
//
// Two pods on one node. The same request stream runs twice:
//   direct : client app -> server app (no proxies)
//   meshed : client app -> local sidecar (outbound) -> remote sidecar
//            (inbound) -> server app
// and the table reports the per-percentile latency and the added
// overhead. The shape to check: a sub-millisecond median cost with a tail
// of a few milliseconds at p99 — not the absolute Istio numbers. The two
// runs are independent sweep points, so --threads=2 runs them in
// parallel with bit-identical results.

#include <cstdio>
#include <memory>
#include <vector>

#include "app/mesh_builder.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"

using namespace meshnet;

namespace {

struct RunResult {
  double p50_ms, p90_ms, p99_ms, mean_ms;
  std::uint64_t completed, errors;
  stats::LogHistogram latency;
};

RunResult run_once(bool meshed, double rps, sim::Duration duration,
                   std::uint64_t seed) {
  http::reset_request_id_counter();
  sim::Simulator sim;
  // Meshed: both pods are service replicas with sidecars. Direct: the
  // same two pods (same order, so same IPs) outside the mesh, with the
  // server app attached by hand.
  cluster::MeshSpec mesh_spec;
  mesh_spec.nodes = {"node-a"};
  const auto serve = [](const http::HttpRequest&) {
    app::HandlerResult plan;
    plan.processing_delay = 0;  // isolate proxy + network cost
    plan.response_bytes = 1024;
    return plan;
  };
  if (meshed) {
    cluster::ServiceSpec client_service;  // traffic source: sidecar, no app
    client_service.name = "client";
    client_service.port = 0;
    cluster::ServiceSpec server;
    server.name = "server";
    server.port = 8080;
    server.handler = serve;
    mesh_spec.services = {client_service, server};
  } else {
    mesh_spec.external_pods = {{"client", "", {}}, {"server-v1", "", {}}};
    mesh_spec.start_control_plane = false;
  }
  const std::unique_ptr<cluster::BuiltMesh> mesh =
      cluster::MeshBuilder(sim).build(std::move(mesh_spec));
  mesh->control_plane().tracer().set_retention(0);
  cluster::Pod& client_pod = *mesh->pod(meshed ? "client-v1" : "client");
  cluster::Pod& server_pod = *mesh->pod("server-v1");
  std::unique_ptr<app::Microservice> direct_server;
  if (!meshed) {
    direct_server = std::make_unique<app::Microservice>(sim, server_pod, serve);
  }

  // Meshed mode: requests enter through the client pod's outbound sidecar
  // listener, exactly as a meshed app's traffic would. Direct mode:
  // straight to the server app's port.
  const net::SocketAddress target =
      meshed ? net::SocketAddress{client_pod.ip(), 15001}
             : net::SocketAddress{server_pod.ip(), 8080};
  mesh::HttpClientPool::Options options;
  options.max_connections = 512;
  mesh::HttpClientPool client(sim, client_pod.transport(), target, options);

  workload::WorkloadSpec spec;
  spec.name = meshed ? "meshed" : "direct";
  spec.rps = rps;
  spec.arrival = workload::ArrivalProcess::kPoisson;
  spec.make_request = workload::simple_get_factory("server", "/item");
  spec.start = 0;
  spec.end = sim::seconds(1) + duration;
  spec.measure_start = sim::seconds(1);
  spec.measure_end = spec.end;

  workload::OpenLoopGenerator gen(sim, client, spec, seed);
  gen.start();
  sim.run_until(spec.end + sim::seconds(10));

  return RunResult{gen.recorder().p50_ms(), gen.recorder().p90_ms(),
                   gen.recorder().p99_ms(), gen.recorder().mean_ms(),
                   gen.recorder().count(), gen.recorder().errors(),
                   gen.recorder().histogram()};
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "sidecar_overhead", /*default_duration_s=*/30,
      /*default_seed=*/7, {"rps"});
  const double rps = util::double_flag_or_exit(options.flags, "rps", 200.0);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "TXT-OVH: latency added by the sidecar pair on one service-to-service "
      "hop\n(paper/Istio: ~3 ms at p99).\n\n");

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<RunResult> outcomes(2);
  for (const bool meshed : {false, true}) {
    const std::size_t slot = meshed ? 1 : 0;
    runner.add({{"path", meshed ? "meshed" : "direct"}},
               [meshed, rps, duration, seed, slot, &outcomes] {
                 outcomes[slot] = run_once(meshed, rps, duration, seed);
                 const RunResult& r = outcomes[slot];
                 workload::PointMetrics metrics;
                 metrics.scalars["p50_ms"] = r.p50_ms;
                 metrics.scalars["p90_ms"] = r.p90_ms;
                 metrics.scalars["p99_ms"] = r.p99_ms;
                 metrics.scalars["mean_ms"] = r.mean_ms;
                 metrics.counters["completed"] = r.completed;
                 metrics.counters["errors"] = r.errors;
                 metrics.histograms["latency_ns"] = r.latency;
                 return metrics;
               });
  }
  const workload::SweepResult sweep = runner.run();
  const RunResult& direct = outcomes[0];
  const RunResult& meshed = outcomes[1];

  stats::Table table({"path", "mean (ms)", "p50 (ms)", "p90 (ms)",
                      "p99 (ms)", "requests"});
  table.add_row({"direct", stats::Table::num(direct.mean_ms, 3),
                 stats::Table::num(direct.p50_ms, 3),
                 stats::Table::num(direct.p90_ms, 3),
                 stats::Table::num(direct.p99_ms, 3),
                 std::to_string(direct.completed)});
  table.add_row({"via sidecars", stats::Table::num(meshed.mean_ms, 3),
                 stats::Table::num(meshed.p50_ms, 3),
                 stats::Table::num(meshed.p90_ms, 3),
                 stats::Table::num(meshed.p99_ms, 3),
                 std::to_string(meshed.completed)});
  table.add_row({"overhead", stats::Table::num(meshed.mean_ms - direct.mean_ms, 3),
                 stats::Table::num(meshed.p50_ms - direct.p50_ms, 3),
                 stats::Table::num(meshed.p90_ms - direct.p90_ms, 3),
                 stats::Table::num(meshed.p99_ms - direct.p99_ms, 3), "-"});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("sidecar pair adds %.3f ms at p99 (paper cites ~3 ms for "
              "Istio; shape, not absolute, is the target)\n",
              meshed.p99_ms - direct.p99_ms);

  const stats::BenchReport report = workload::make_bench_report(
      "sidecar_overhead",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"rps", stats::Table::num(rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
