// PARSIM — the parallel-engine speedup case (DESIGN.md §12).
//
// One generated 64-service layered fan-out mesh, partitioned into
// --shards shards, is simulated once per arm with a different engine
// worker-thread count (--engine-threads, default 1,2,4,8). For a fixed
// shard count every arm must produce a bit-identical metrics block —
// the binary enforces that itself and exits 1 on any divergence — while
// wall-clock drops with threads. Speedup is a wall_* figure: reported,
// never baseline-compared, and only meaningful when the host actually
// has the cores (see --require-speedup).
//
// Arms always run sequentially (each arm is measuring whole-machine
// wall-clock); the standard --threads flag is accepted but does not fan
// arms out. The engine opts out of the shared worker budget for the same
// reason: this binary IS the top-level thread consumer.
//
//   --shards=N            partition size (default 8)
//   --engine-threads=CSV  worker-thread arms (default 1,2,4,8)
//   --require-speedup=X   exit 1 unless wall(t=1)/wall(best) >= X.
//                         Off by default: CI containers are often
//                         single-core, where the honest speedup is ~1.

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

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "parsim", /*default_duration_s=*/5, /*default_seed=*/42,
      {"shards", "engine-threads", "require-speedup"});

  const int shards =
      static_cast<int>(workload::int_flag_or_exit(options.flags, "shards", 8));
  const std::vector<int> arms = parse_int_list(
      options.flags.get_or("engine-threads", "1,2,4,8"));
  const double require_speedup =
      workload::double_flag_or_exit(options.flags, "require-speedup", 0.0);
  if (arms.empty()) {
    std::fprintf(stderr, "--engine-threads: no arms\n");
    return 2;
  }
  if (options.threads != 1) {
    std::fprintf(stderr,
                 "note: PARSIM arms measure whole-machine wall clock and "
                 "always run sequentially; --threads does not fan them.\n");
  }

  std::printf(
      "PARSIM: sharded parallel engine on a generated 64-service mesh\n"
      "(identical metrics at every thread count; wall-clock is the only "
      "thing allowed to change).\n\n");

  workload::SweepOptions sweep_opts;
  sweep_opts.threads = 1;  // arms own the machine, one at a time
  sweep_opts.progress = true;
  workload::SweepRunner runner(sweep_opts);

  std::vector<workload::ParsimExperimentResult> outcomes(arms.size());
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const int threads = arms[slot];
    runner.add({{"threads", std::to_string(threads)}},
               [threads, shards, slot, &outcomes, &options] {
                 workload::ParsimConfig config;
                 config.shards = shards;
                 config.threads = threads;
                 config.respect_worker_budget = false;
                 config.seed = options.seed;
                 config.duration = sim::seconds(options.duration_s);
                 outcomes[slot] = workload::run_parsim_experiment(config);
                 return workload::parsim_point_metrics(outcomes[slot]);
               });
  }
  const workload::SweepResult sweep = runner.run();

  const double base_wall = sweep.points.front().wall_ms;
  double best_wall = base_wall;
  stats::Table table({"threads", "executors", "events", "epochs",
                      "cross-shard msgs", "wall (ms)", "Mev/s", "speedup"});
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const workload::ParsimExperimentResult& r = outcomes[slot];
    const double wall = sweep.points[slot].wall_ms;
    best_wall = std::min(best_wall, wall);
    table.add_row(
        {std::to_string(arms[slot]), std::to_string(r.executors),
         std::to_string(r.events_executed), std::to_string(r.engine.epochs),
         std::to_string(r.engine.messages), stats::Table::num(wall, 1),
         stats::Table::num(static_cast<double>(r.events_executed) /
                               (wall * 1000.0),
                           2),
         stats::Table::num(wall > 0 ? base_wall / wall : 0.0, 2) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  const workload::ParsimExperimentResult& shape = outcomes.front();
  std::printf(
      "topology: %d services, %d edges; partition: %d shards, %d cut "
      "edges, lookahead %.3f ms\n",
      shape.services, shape.edges, shape.shards, shape.cut_edges,
      sim::to_milliseconds(shape.lookahead));

  // The engine's core claim, enforced on every run: thread count changes
  // wall-clock only. Any metric divergence between arms is a bug.
  for (std::size_t slot = 1; slot < arms.size(); ++slot) {
    if (!same_metrics(sweep.points.front().metrics,
                      sweep.points[slot].metrics)) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: metrics at --engine-threads=%d "
                   "differ from the %d-thread arm\n",
                   arms[slot], arms.front());
      return 1;
    }
  }
  std::printf("determinism: %zu arms bit-identical\n", arms.size());

  const double speedup = best_wall > 0 ? base_wall / best_wall : 0.0;
  if (require_speedup > 0.0 && speedup < require_speedup) {
    std::fprintf(stderr,
                 "SPEEDUP FAILURE: best wall-clock speedup %.2fx < required "
                 "%.2fx\n",
                 speedup, require_speedup);
    return 1;
  }

  stats::BenchReport report = workload::make_bench_report(
      "parsim",
      {{"seed", std::to_string(options.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"shards", std::to_string(shards)},
       {"engine_threads", options.flags.get_or("engine-threads", "1,2,4,8")},
       {"topology", "4x8x16x36"}},
      sweep);
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const double wall = sweep.points[slot].wall_ms;
    report.engine.emplace_back(
        "wall_speedup_t" + std::to_string(arms[slot]),
        wall > 0 ? base_wall / wall : 0.0);
  }
  return workload::finish_harness(report, options);
}
