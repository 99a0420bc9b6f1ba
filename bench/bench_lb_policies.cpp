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
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "lb_policies", /*default_duration_s=*/20,
      /*default_seed=*/7, {"rps"});
  const double rps = util::double_flag_or_exit(options.flags, "rps", 300.0);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "ABL-LB: sidecar load-balancing policies, 3 replicas, one 10x "
      "slower, %.0f RPS.\n\n", rps);

  const std::vector<mesh::LbPolicy> lb_policies = {
      mesh::LbPolicy::kRoundRobin, mesh::LbPolicy::kRandom,
      mesh::LbPolicy::kLeastRequest, mesh::LbPolicy::kWeightedRoundRobin};

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::ScenarioResult> outcomes(lb_policies.size());
  for (std::size_t i = 0; i < lb_policies.size(); ++i) {
    const mesh::LbPolicy policy = lb_policies[i];
    runner.add({{"policy", std::string(mesh::lb_policy_name(policy))}},
               [policy, rps, duration, seed, i, &outcomes] {
                 workload::Scenario scenario =
                     workload::lb_policies_scenario(policy, rps);
                 scenario.duration = duration;
                 scenario.seed = seed;
                 outcomes[i] = workload::run_scenario(scenario);
                 const workload::WindowSummary& r =
                     outcomes[i].workloads.front();
                 workload::PointMetrics metrics;
                 metrics.scalars["p50_ms"] = r.p50_ms;
                 metrics.scalars["p99_ms"] = r.p99_ms;
                 metrics.scalars["mean_ms"] = r.mean_ms;
                 metrics.counters["completed"] = r.completed;
                 metrics.counters["errors"] = r.errors;
                 for (const auto& [replica, served] : outcomes[i].served) {
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
    const workload::WindowSummary& r = outcomes[i].workloads.front();
    const auto& served = outcomes[i].served;
    table.add_row({std::string(mesh::lb_policy_name(lb_policies[i])),
                   stats::Table::num(r.mean_ms, 2),
                   stats::Table::num(r.p50_ms, 2),
                   stats::Table::num(r.p99_ms, 2),
                   std::to_string(served.at("server-v1")),
                   std::to_string(served.at("server-v2")),
                   std::to_string(served.at("server-v3")),
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
