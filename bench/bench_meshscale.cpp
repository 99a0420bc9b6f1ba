// MESHSCALE — control-plane scaling on the declarative mesh (DESIGN.md
// §13).
//
// Each arm runs `--cells` MESHSCALE scenarios (workload::
// meshscale_scenario: one generated N-service MeshSpec, each cell on its
// own simulator with its own arrivals) end to end through the ingress
// gateway while one leaf endpoint is crashed, deregistered and restored
// mid-run. The sweep scales N (--services, default 10,50,100; the
// paper's "thousands of services" pressure test) and contrasts three
// control-plane transports at the largest N:
//
//   push=delta   incremental (xDS delta-style) config pushes
//   push=full    full-snapshot pushes, same channel otherwise
//   scope=on     delta + cluster scoping + endpoint subsetting
//                (bounded per-sidecar endpoint tables)
//
// The binary enforces the MESHSCALE acceptance criteria itself:
//   * at the largest N, the delta arm's churn-window bytes must be
//     < 25% of the full-snapshot arm's (single-endpoint churn);
//   * the delta arm's post-churn reconvergence must not regress vs the
//     full arm (both must reconverge at all).
// Bit-identity across sweep thread counts is the harness's --threads
// guarantee, gated by CI's --threads=0 baseline row.
//
//   --services=CSV      sweep sizes, each >= 4 (default 10,50,100; try 250)
//   --cells=N           independent mesh replicas, >= 1

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

struct Arm {
  int services = 0;
  bool delta = true;
  bool scoped = false;  ///< cluster scopes + one-endpoint subsets
};

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "meshscale", /*default_duration_s=*/3, /*default_seed=*/42,
      {"services", "cells"});

  const std::vector<int> sizes = util::int_list_flag_or_exit(
      options.flags, "services", "10,50,100", /*min=*/4);
  const int cells = static_cast<int>(
      util::int_flag_or_exit(options.flags, "cells", 2, /*min=*/1));
  const int largest = *std::max_element(sizes.begin(), sizes.end());

  std::vector<Arm> arms;
  for (const int n : sizes) arms.push_back({n, /*delta=*/true, false});
  arms.push_back({largest, /*delta=*/false, false});  // byte comparator
  arms.push_back({largest, /*delta=*/true, true});    // bounded-state arm

  std::printf(
      "MESHSCALE: %d-cell declarative meshes under single-endpoint churn\n"
      "(delta config push vs full snapshots; scoped arm adds cluster "
      "scoping + endpoint subsetting).\n\n",
      cells);

  const auto arm_params = [](const Arm& arm) {
    return std::vector<std::pair<std::string, std::string>>{
        {"services", std::to_string(arm.services)},
        {"push", arm.delta ? "delta" : "full"},
        {"scope", arm.scoped ? "on" : "off"}};
  };

  workload::SweepRunner runner(workload::sweep_options(options));
  for (const Arm& arm : arms) {
    runner.add(arm_params(arm), [arm, cells, &options] {
      std::vector<workload::ScenarioResult> results;
      for (int cell = 0; cell < cells; ++cell) {
        results.push_back(workload::run_scenario(workload::meshscale_scenario(
            arm.services, cell, options.seed,
            sim::seconds(options.duration_s), arm.delta, arm.scoped)));
      }
      return workload::meshscale_point_metrics(results);
    });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"services", "push", "scope", "pushes", "full KB",
                      "delta KB", "churn KB", "reconv (ms)", "eps/sidecar",
                      "max eps", "p50 (ms)", "p99 (ms)", "ok%"});
  const auto kb = [](std::uint64_t bytes) {
    return stats::Table::num(static_cast<double>(bytes) / 1024.0, 1);
  };
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const workload::PointMetrics& m = sweep.points[slot].metrics;
    table.add_row(
        {std::to_string(arms[slot].services),
         arms[slot].delta ? "delta" : "full", arms[slot].scoped ? "on" : "off",
         std::to_string(m.counters.at("cp_pushes")),
         kb(m.counters.at("cp_full_push_bytes")),
         kb(m.counters.at("cp_delta_push_bytes")),
         kb(m.counters.at("cp_churn_push_bytes")),
         stats::Table::num(m.scalars.at("churn_convergence_ms"), 1),
         stats::Table::num(m.scalars.at("mean_endpoints_per_sidecar"), 1),
         std::to_string(m.counters.at("max_endpoints_per_sidecar")),
         stats::Table::num(m.scalars.at("e2e_p50_ms"), 2),
         stats::Table::num(m.scalars.at("e2e_p99_ms"), 2),
         stats::Table::num(m.scalars.at("success_rate") * 100.0, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- acceptance: delta churn bytes < 25% of full, at the largest N ----
  const workload::PointMetrics* delta_arm = nullptr;
  const workload::PointMetrics* full_arm = nullptr;
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    if (arms[slot].services != largest || arms[slot].scoped) continue;
    (arms[slot].delta ? delta_arm : full_arm) = &sweep.points[slot].metrics;
  }
  if (delta_arm != nullptr && full_arm != nullptr) {
    const std::uint64_t delta_wire =
        delta_arm->counters.at("cp_churn_push_bytes");
    const std::uint64_t full_wire =
        full_arm->counters.at("cp_churn_push_bytes");
    const double ratio = full_wire > 0 ? static_cast<double>(delta_wire) /
                                             static_cast<double>(full_wire)
                                       : 1.0;
    std::printf(
        "churn window at %d services: delta %llu B vs full %llu B "
        "(%.1f%% of full)\n",
        largest, static_cast<unsigned long long>(delta_wire),
        static_cast<unsigned long long>(full_wire), ratio * 100.0);
    if (ratio >= 0.25) {
      std::fprintf(stderr,
                   "DELTA FAILURE: churn-window delta bytes are %.1f%% of "
                   "full-snapshot bytes (need < 25%%)\n",
                   ratio * 100.0);
      return 1;
    }
    if (delta_arm->counters.at("cp_converged") == 0 ||
        full_arm->counters.at("cp_converged") == 0) {
      std::fprintf(stderr, "CONVERGENCE FAILURE: an arm never reconverged "
                           "after the churn restore\n");
      return 1;
    }
    const double delta_ms = delta_arm->scalars.at("churn_convergence_ms");
    const double full_ms = full_arm->scalars.at("churn_convergence_ms");
    if (delta_ms > full_ms * 1.05) {
      std::fprintf(stderr,
                   "CONVERGENCE FAILURE: delta reconvergence %.1f ms "
                   "regressed vs full %.1f ms\n",
                   delta_ms, full_ms);
      return 1;
    }
  }

  stats::BenchReport report = workload::make_bench_report(
      "meshscale",
      {{"seed", std::to_string(options.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"services", options.flags.get_or("services", "10,50,100")},
       {"cells", std::to_string(cells)}},
      sweep);
  return workload::finish_harness(report, options);
}
