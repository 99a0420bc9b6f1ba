// ABL-LB — load-balancing policy ablation (paper §2 lists LB among core
// sidecar functions; §3.6 notes "the right algorithms for these modules
// may be non-obvious").
//
// A three-replica service where one replica is 10x slower serves an open-
// loop stream under each LB policy. Expected shape: least-request routes
// around the slow replica and wins the tail; round-robin and random keep
// feeding it and pay at p99; weighted-round-robin wins only if the
// operator already knew the weights. One sweep point per policy.

#include <cstdio>
#include <map>
#include <vector>

#include "app/mesh_builder.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"

using namespace meshnet;

namespace {

struct RunResult {
  double p50_ms, p99_ms, mean_ms;
  std::uint64_t completed, errors;
  std::map<std::string, std::uint64_t> per_replica;
  stats::LogHistogram latency;
};

RunResult run_once(mesh::LbPolicy policy, double rps, sim::Duration duration,
                   std::uint64_t seed) {
  http::reset_request_id_counter();
  sim::Simulator sim;
  cluster::MeshSpec mesh_spec;
  mesh_spec.nodes = {"node-a"};
  mesh_spec.policies.default_lb = policy;
  cluster::ServiceSpec client_service;  // traffic source: sidecar, no app
  client_service.name = "client";
  client_service.port = 0;
  cluster::ServiceSpec server;
  server.name = "server";
  server.replicas = 3;
  server.port = 8080;
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
  mesh_spec.services = {client_service, server};
  const std::unique_ptr<cluster::BuiltMesh> mesh =
      cluster::MeshBuilder(sim).build(std::move(mesh_spec));
  mesh->control_plane().tracer().set_retention(0);
  cluster::Pod& client_pod = *mesh->pod("client-v1");
  // server-v3 is the straggler: every request it serves takes 10x longer.
  mesh->pod("server-v3")->set_compute_multiplier(10.0);

  mesh::HttpClientPool::Options options;
  options.max_connections = 512;
  mesh::HttpClientPool client(sim, client_pod.transport(),
                              net::SocketAddress{client_pod.ip(), 15001},
                              options);

  workload::WorkloadSpec spec;
  spec.name = "lb";
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

  RunResult result{gen.recorder().p50_ms(), gen.recorder().p99_ms(),
                   gen.recorder().mean_ms(), gen.recorder().count(),
                   gen.recorder().errors(), {},
                   gen.recorder().histogram()};
  // The app's own served-request counter is the ground truth; the builder
  // instantiates one app per server replica, in replica order.
  const std::vector<std::string> pods =
      cluster::service_pod_names(mesh->spec().services.back());
  for (std::size_t i = 0; i < pods.size(); ++i) {
    result.per_replica[pods[i]] = mesh->microservices()[i]->requests_served();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "lb_policies", /*default_duration_s=*/20,
      /*default_seed=*/7, {"rps"});
  const double rps = workload::double_flag_or_exit(options.flags, "rps", 300.0);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "ABL-LB: sidecar load-balancing policies, 3 replicas, one 10x "
      "slower, %.0f RPS.\n\n", rps);

  const std::vector<mesh::LbPolicy> lb_policies = {
      mesh::LbPolicy::kRoundRobin, mesh::LbPolicy::kRandom,
      mesh::LbPolicy::kLeastRequest, mesh::LbPolicy::kWeightedRoundRobin};

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<RunResult> outcomes(lb_policies.size());
  for (std::size_t i = 0; i < lb_policies.size(); ++i) {
    const mesh::LbPolicy policy = lb_policies[i];
    runner.add({{"policy", std::string(mesh::lb_policy_name(policy))}},
               [policy, rps, duration, seed, i, &outcomes] {
                 outcomes[i] = run_once(policy, rps, duration, seed);
                 const RunResult& r = outcomes[i];
                 workload::PointMetrics metrics;
                 metrics.scalars["p50_ms"] = r.p50_ms;
                 metrics.scalars["p99_ms"] = r.p99_ms;
                 metrics.scalars["mean_ms"] = r.mean_ms;
                 metrics.counters["completed"] = r.completed;
                 metrics.counters["errors"] = r.errors;
                 for (const auto& [replica, served] : r.per_replica) {
                   metrics.counters["served_" + replica] = served;
                 }
                 metrics.histograms["latency_ns"] = r.latency;
                 return metrics;
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"policy", "mean (ms)", "p50 (ms)", "p99 (ms)",
                      "v1", "v2", "v3(slow)", "errors"});
  for (std::size_t i = 0; i < lb_policies.size(); ++i) {
    const RunResult& r = outcomes[i];
    table.add_row({std::string(mesh::lb_policy_name(lb_policies[i])),
                   stats::Table::num(r.mean_ms, 2),
                   stats::Table::num(r.p50_ms, 2),
                   stats::Table::num(r.p99_ms, 2),
                   std::to_string(r.per_replica.at("server-v1")),
                   std::to_string(r.per_replica.at("server-v2")),
                   std::to_string(r.per_replica.at("server-v3")),
                   std::to_string(r.errors)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const stats::BenchReport report = workload::make_bench_report(
      "lb_policies",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"rps", stats::Table::num(rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
