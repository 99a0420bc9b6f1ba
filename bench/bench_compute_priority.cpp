// ABL-CPU — extending prioritization beyond the network (paper §5:
// "coordinating management of other resources beyond the network (i.e.,
// compute and storage) ... prioritized request queuing").
//
// A single CPU-bound service (fixed worker pool) serves short latency-
// sensitive requests and long batch requests. With FIFO admission, LS
// requests wait behind whole batch jobs; with priority-aware admission
// queuing, they jump the queue. The network is uncontended throughout,
// isolating the compute effect. Two sweep points: fifo, priority.

#include <cstdio>
#include <memory>
#include <vector>

#include "app/mesh_builder.h"
#include "core/priority.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"

using namespace meshnet;

namespace {

struct RunResult {
  double ls_p50, ls_p99, li_p50, li_p99;
  std::uint64_t ls_done, li_done, max_queue;
  stats::LogHistogram ls_latency;
};

RunResult run_once(bool priority_scheduling, double ls_rps, double li_rps,
                   sim::Duration duration, std::uint64_t seed) {
  http::reset_request_id_counter();
  sim::Simulator sim;
  cluster::MeshSpec mesh_spec;
  mesh_spec.nodes = {"node-a"};
  cluster::ServiceSpec client_service;  // traffic source: sidecar, no app
  client_service.name = "client";
  client_service.port = 0;
  cluster::ServiceSpec server;
  server.name = "server";
  server.port = 8080;
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
  mesh_spec.services = {client_service, server};
  const std::unique_ptr<cluster::BuiltMesh> mesh =
      cluster::MeshBuilder(sim).build(std::move(mesh_spec));
  mesh->control_plane().tracer().set_retention(0);
  cluster::Pod& client_pod = *mesh->pod("client-v1");

  mesh::HttpClientPool::Options pool_options;
  pool_options.max_connections = 1024;
  mesh::HttpClientPool client(sim, client_pod.transport(),
                              net::SocketAddress{client_pod.ip(), 15001},
                              pool_options);

  auto make_factory = [](const char* priority) {
    return [priority](std::uint64_t i) {
      http::HttpRequest request;
      request.path = "/job/" + std::to_string(i);
      request.headers.set(http::headers::kHost, "server");
      request.headers.set(http::headers::kMeshPriority, priority);
      return request;
    };
  };

  const sim::Time end = sim::seconds(1) + duration;
  workload::WorkloadSpec ls{"ls", ls_rps,
                            workload::ArrivalProcess::kUniformRandom,
                            make_factory("high"), 0, end, sim::seconds(1),
                            end};
  workload::WorkloadSpec li{"li", li_rps,
                            workload::ArrivalProcess::kUniformRandom,
                            make_factory("low"), 0, end, sim::seconds(1),
                            end};
  workload::OpenLoopGenerator ls_gen(sim, client, ls, seed);
  workload::OpenLoopGenerator li_gen(sim, client, li, seed + 1);
  ls_gen.start();
  li_gen.start();
  sim.run_until(end + sim::seconds(30));

  return RunResult{ls_gen.recorder().p50_ms(), ls_gen.recorder().p99_ms(),
                   li_gen.recorder().p50_ms(), li_gen.recorder().p99_ms(),
                   ls_gen.recorder().count(), li_gen.recorder().count(),
                   mesh->microservices().front()->max_admission_queue_seen(),
                   ls_gen.recorder().histogram()};
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "compute_priority", /*default_duration_s=*/20,
      /*default_seed=*/7, {"ls-rps", "li-rps"});
  const double ls_rps =
      util::double_flag_or_exit(options.flags, "ls-rps", 100.0);
  const double li_rps =
      util::double_flag_or_exit(options.flags, "li-rps", 85.0);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "ABL-CPU: prioritized request queuing at a CPU-bound service "
      "(4 workers,\nLS jobs 2 ms, batch jobs 40 ms; %.0f/%.0f RPS).\n\n",
      ls_rps, li_rps);

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<RunResult> outcomes(2);
  for (const bool priority : {false, true}) {
    const std::size_t slot = priority ? 1 : 0;
    runner.add({{"admission", priority ? "priority" : "fifo"}},
               [priority, ls_rps, li_rps, duration, seed, slot, &outcomes] {
                 outcomes[slot] =
                     run_once(priority, ls_rps, li_rps, duration, seed);
                 const RunResult& r = outcomes[slot];
                 workload::PointMetrics metrics;
                 metrics.scalars["ls_p50_ms"] = r.ls_p50;
                 metrics.scalars["ls_p99_ms"] = r.ls_p99;
                 metrics.scalars["li_p50_ms"] = r.li_p50;
                 metrics.scalars["li_p99_ms"] = r.li_p99;
                 metrics.counters["ls_completed"] = r.ls_done;
                 metrics.counters["li_completed"] = r.li_done;
                 metrics.counters["max_admission_queue"] = r.max_queue;
                 metrics.histograms["ls_latency_ns"] = r.ls_latency;
                 return metrics;
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"admission", "LS p50 (ms)", "LS p99 (ms)",
                      "LI p50 (ms)", "LI p99 (ms)", "LS done", "LI done",
                      "max queue"});
  for (const bool priority : {false, true}) {
    const RunResult& r = outcomes[priority ? 1 : 0];
    table.add_row({priority ? "priority-aware" : "fifo",
                   stats::Table::num(r.ls_p50, 2),
                   stats::Table::num(r.ls_p99, 2),
                   stats::Table::num(r.li_p50, 2),
                   stats::Table::num(r.li_p99, 2), std::to_string(r.ls_done),
                   std::to_string(r.li_done), std::to_string(r.max_queue)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const stats::BenchReport report = workload::make_bench_report(
      "compute_priority",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", stats::Table::num(ls_rps, 0)},
       {"li_rps", stats::Table::num(li_rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
