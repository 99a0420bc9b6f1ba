// MESHSCALE — control-plane scaling on the declarative mesh (DESIGN.md
// §13).
//
// Each arm builds `--cells` independent N-service meshes from one
// generated MeshSpec (cluster::MeshBuilder) on the sharded parallel
// engine and drives them end to end through the ingress gateway while
// one leaf endpoint is crashed, deregistered and restored mid-run. The
// sweep scales N (--services, default 10,50,100; the paper's "thousands
// of services" pressure test) and contrasts three control-plane
// transports at the largest N:
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
//     full arm (both must reconverge at all);
//   * the smallest arm re-runs at 1 and 2 engine threads and the whole
//     metrics block must be bit-identical.
//
//   --services=CSV      sweep sizes (default 10,50,100; try 250)
//   --cells=N           independent mesh replicas = engine shards
//   --engine-threads=N  worker threads for the sweep arms (default 1)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) values.push_back(std::stoi(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

bool same_metrics(const workload::PointMetrics& a,
                  const workload::PointMetrics& b) {
  return a.scalars == b.scalars && a.counters == b.counters &&
         a.histograms == b.histograms && a.snapshot == b.snapshot;
}

struct Arm {
  int services = 0;
  bool delta = true;
  bool scoped = false;  ///< cluster scopes + subset_size=1
};

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "meshscale", /*default_duration_s=*/3, /*default_seed=*/42,
      {"services", "cells", "engine-threads"});

  const std::vector<int> sizes =
      parse_int_list(options.flags.get_or("services", "10,50,100"));
  const int cells =
      static_cast<int>(workload::int_flag_or_exit(options.flags, "cells", 2));
  const int engine_threads = static_cast<int>(
      workload::int_flag_or_exit(options.flags, "engine-threads", 1));
  if (sizes.empty()) {
    std::fprintf(stderr, "--services: no arms\n");
    return 2;
  }
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

  const auto make_config = [&](const Arm& arm) {
    workload::MeshscaleConfig config;
    config.services = arm.services;
    config.cells = cells;
    config.threads = engine_threads;
    config.seed = options.seed;
    config.duration = sim::seconds(options.duration_s);
    config.churn_at = config.duration * 2 / 5;
    config.restore_at = config.duration * 3 / 5;
    config.delta_push = arm.delta;
    config.derive_scopes = arm.scoped;
    config.subset_size = arm.scoped ? 1 : 0;
    return config;
  };
  const auto arm_params = [](const Arm& arm) {
    return std::vector<std::pair<std::string, std::string>>{
        {"services", std::to_string(arm.services)},
        {"push", arm.delta ? "delta" : "full"},
        {"scope", arm.scoped ? "on" : "off"}};
  };

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::MeshscaleExperimentResult> outcomes(arms.size());
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const Arm arm = arms[slot];
    runner.add(arm_params(arm), [arm, slot, &outcomes, &make_config] {
      outcomes[slot] = workload::run_meshscale_experiment(make_config(arm));
      return workload::meshscale_point_metrics(outcomes[slot]);
    });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"services", "push", "scope", "pushes", "full KB",
                      "delta KB", "churn KB", "reconv (ms)", "eps/sidecar",
                      "max eps", "p50 (ms)", "p99 (ms)", "ok%"});
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const workload::MeshscaleExperimentResult& r = outcomes[slot];
    const workload::PointMetrics& m = sweep.points[slot].metrics;
    table.add_row(
        {std::to_string(r.services), arms[slot].delta ? "delta" : "full",
         arms[slot].scoped ? "on" : "off", std::to_string(r.cp_pushes),
         stats::Table::num(static_cast<double>(r.bytes.full_bytes) / 1024.0,
                           1),
         stats::Table::num(static_cast<double>(r.bytes.delta_bytes) / 1024.0,
                           1),
         stats::Table::num(
             static_cast<double>(r.churn_bytes.full_bytes +
                                 r.churn_bytes.delta_bytes) /
                 1024.0,
             1),
         stats::Table::num(sim::to_milliseconds(r.churn_convergence), 1),
         stats::Table::num(m.scalars.at("mean_endpoints_per_sidecar"), 1),
         std::to_string(r.max_endpoints_per_sidecar),
         stats::Table::num(m.scalars.at("e2e_p50_ms"), 2),
         stats::Table::num(m.scalars.at("e2e_p99_ms"), 2),
         stats::Table::num(m.scalars.at("success_rate") * 100.0, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- acceptance: delta churn bytes < 25% of full, at the largest N ----
  const workload::MeshscaleExperimentResult* delta_arm = nullptr;
  const workload::MeshscaleExperimentResult* full_arm = nullptr;
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    if (arms[slot].services != largest || arms[slot].scoped) continue;
    (arms[slot].delta ? delta_arm : full_arm) = &outcomes[slot];
  }
  if (delta_arm != nullptr && full_arm != nullptr) {
    const auto wire = [](const workload::MeshscaleExperimentResult& r) {
      return r.churn_bytes.full_bytes + r.churn_bytes.delta_bytes;
    };
    const double ratio =
        wire(*full_arm) > 0 ? static_cast<double>(wire(*delta_arm)) /
                                  static_cast<double>(wire(*full_arm))
                            : 1.0;
    std::printf(
        "churn window at %d services: delta %llu B vs full %llu B "
        "(%.1f%% of full)\n",
        largest, static_cast<unsigned long long>(wire(*delta_arm)),
        static_cast<unsigned long long>(wire(*full_arm)), ratio * 100.0);
    if (ratio >= 0.25) {
      std::fprintf(stderr,
                   "DELTA FAILURE: churn-window delta bytes are %.1f%% of "
                   "full-snapshot bytes (need < 25%%)\n",
                   ratio * 100.0);
      return 1;
    }
    if (!delta_arm->converged || !full_arm->converged) {
      std::fprintf(stderr, "CONVERGENCE FAILURE: an arm never reconverged "
                           "after the churn restore\n");
      return 1;
    }
    if (sim::to_milliseconds(delta_arm->churn_convergence) >
        sim::to_milliseconds(full_arm->churn_convergence) * 1.05) {
      std::fprintf(
          stderr,
          "CONVERGENCE FAILURE: delta reconvergence %.1f ms regressed vs "
          "full %.1f ms\n",
          sim::to_milliseconds(delta_arm->churn_convergence),
          sim::to_milliseconds(full_arm->churn_convergence));
      return 1;
    }
  }

  // --- acceptance: engine-thread bit-identity on the smallest arm -------
  {
    const Arm smallest{*std::min_element(sizes.begin(), sizes.end()), true,
                       false};
    workload::PointMetrics per_threads[2];
    for (int t = 1; t <= 2; ++t) {
      workload::MeshscaleConfig config = make_config(smallest);
      config.threads = t;
      config.respect_worker_budget = false;
      per_threads[t - 1] = workload::meshscale_point_metrics(
          workload::run_meshscale_experiment(config));
    }
    if (!same_metrics(per_threads[0], per_threads[1])) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: metrics differ between 1 and 2 "
                   "engine threads\n");
      return 1;
    }
    std::printf("determinism: %d-service arm bit-identical at 1 and 2 "
                "engine threads\n",
                smallest.services);
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
