// TXT-LI — reproduces the paper's §4.3 text claim: "This improvement
// comes at the cost of degrading the performance of the latency-
// insensitive workloads (less than 5% increase in the p99 response
// latency)."
//
// Same experiment as FIG4, but the reported series is the latency-
// INSENSITIVE workload's p99 with and without the optimization, plus the
// relative degradation. Runs through the sweep harness (--threads).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "li_degradation", /*default_duration_s=*/15,
      /*default_seed=*/42, {"warmup"});
  const auto duration = sim::seconds(options.duration_s);
  const std::int64_t warmup_s =
      workload::int_flag_or_exit(options.flags, "warmup", 4);
  const auto seed = options.seed;

  std::printf(
      "TXT-LI: latency-insensitive workload p99 with vs without cross-layer "
      "optimization\n(paper: < 5%% increase in p99).\n\n");

  const std::vector<double> rps_levels = {10.0, 20.0, 30.0, 40.0, 50.0};
  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::ElibraryScenarioResult> outcomes(
      rps_levels.size() * 2);
  for (std::size_t level = 0; level < rps_levels.size(); ++level) {
    const double rps = rps_levels[level];
    for (const bool cross_layer : {false, true}) {
      const std::size_t slot = level * 2 + (cross_layer ? 1 : 0);
      runner.add({{"rps", stats::Table::num(rps, 0)},
                  {"cross_layer", cross_layer ? "on" : "off"}},
                 [rps, cross_layer, duration, warmup_s, seed, slot,
                  &outcomes] {
                   workload::ElibraryScenario scenario =
                       workload::fig4_scenario(rps, cross_layer);
                   scenario.duration = duration;
                   scenario.warmup = sim::seconds(warmup_s);
                   scenario.seed = seed;
                   outcomes[slot] = workload::run_elibrary_scenario(scenario);
                   return workload::elibrary_point_metrics(outcomes[slot]);
                 });
    }
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"RPS", "LI p99 w/o (ms)", "LI p99 w/ (ms)",
                      "delta", "LI p50 w/o (ms)", "LI p50 w/ (ms)",
                      "LS p99 gain"});

  double worst_delta = 0.0;
  for (std::size_t level = 0; level < rps_levels.size(); ++level) {
    const workload::ElibraryScenarioResult& base = outcomes[level * 2];
    const workload::ElibraryScenarioResult& opt = outcomes[level * 2 + 1];
    const double delta =
        base.li.p99_ms > 0 ? (opt.li.p99_ms - base.li.p99_ms) / base.li.p99_ms
                           : 0.0;
    worst_delta = std::max(worst_delta, delta);
    table.add_row({stats::Table::num(rps_levels[level], 0),
                   stats::Table::num(base.li.p99_ms, 1),
                   stats::Table::num(opt.li.p99_ms, 1),
                   stats::Table::num(delta * 100.0, 1) + "%",
                   stats::Table::num(base.li.p50_ms, 1),
                   stats::Table::num(opt.li.p50_ms, 1),
                   stats::Table::num(base.ls.p99_ms / opt.ls.p99_ms, 2) + "x"});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("worst LI p99 degradation across loads: %.1f%% (paper: < 5%%)\n",
              worst_delta * 100.0);

  const stats::BenchReport report = workload::make_bench_report(
      "li_degradation",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"warmup_s", std::to_string(warmup_s)},
       {"rps", "10,20,30,40,50"}},
      sweep);
  return workload::finish_harness(report, options);
}
