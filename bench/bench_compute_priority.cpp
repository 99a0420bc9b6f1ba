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
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"

using namespace meshnet;

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
  std::vector<workload::ScenarioResult> outcomes(2);
  for (const bool priority : {false, true}) {
    const std::size_t slot = priority ? 1 : 0;
    runner.add({{"admission", priority ? "priority" : "fifo"}},
               [priority, ls_rps, li_rps, duration, seed, slot, &outcomes] {
                 workload::Scenario scenario =
                     workload::compute_priority_scenario(priority, ls_rps,
                                                         li_rps);
                 scenario.duration = duration;
                 scenario.seed = seed;
                 outcomes[slot] = workload::run_scenario(scenario);
                 const workload::ScenarioResult& r = outcomes[slot];
                 workload::PointMetrics metrics;
                 metrics.scalars["ls_p50_ms"] = r.ls().p50_ms;
                 metrics.scalars["ls_p99_ms"] = r.ls().p99_ms;
                 metrics.scalars["li_p50_ms"] = r.li().p50_ms;
                 metrics.scalars["li_p99_ms"] = r.li().p99_ms;
                 metrics.counters["ls_completed"] = r.ls().completed;
                 metrics.counters["li_completed"] = r.li().completed;
                 metrics.counters["max_admission_queue"] =
                     r.max_admission_queue;
                 metrics.histograms["ls_latency_ns"] = r.ls().latency;
                 return metrics;
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"admission", "LS p50 (ms)", "LS p99 (ms)",
                      "LI p50 (ms)", "LI p99 (ms)", "LS done", "LI done",
                      "max queue"});
  for (const bool priority : {false, true}) {
    const workload::ScenarioResult& r = outcomes[priority ? 1 : 0];
    table.add_row({priority ? "priority-aware" : "fifo",
                   stats::Table::num(r.ls().p50_ms, 2),
                   stats::Table::num(r.ls().p99_ms, 2),
                   stats::Table::num(r.li().p50_ms, 2),
                   stats::Table::num(r.li().p99_ms, 2),
                   std::to_string(r.ls().completed),
                   std::to_string(r.li().completed),
                   std::to_string(r.max_admission_queue)});
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
