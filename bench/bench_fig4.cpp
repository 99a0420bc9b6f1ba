// FIG4 — reproduces the paper's Figure 4: "Reduction in request latency
// from cross-layer optimization."
//
// Sweeps offered load (RPS per workload, default 10..50 as in the paper)
// and, for each level, runs the e-library mix twice — without and with
// cross-layer prioritization — reporting the latency-sensitive workload's
// p50 and p99, the same four series the figure plots. The 2×|rps| points
// fan across the sweep harness (--threads) and produce bit-identical
// results at any thread count.
//
// Flags (plus the standard harness set, see workload/bench_harness.h):
//   --rps=10,20,30,40,50   load levels
//   --duration=15          measured seconds per run
//   --warmup=4 --cooldown=2
//   --seed=42
//   --csv                  also emit CSV for plotting
//   --threads=N --json-out[=PATH] --baseline=PATH --tolerance=R

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats/table.h"
#include "util/strings.h"
#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

/// Every entry must be a whole RPS value: a typo exits 2 rather than
/// dropping the entry (or running the default sweep).
std::vector<double> parse_rps_list(const std::string& text) {
  std::vector<double> out;
  for (const auto part : util::split(text, ',')) {
    const auto v = util::parse_u64(util::trim(part));
    if (!v) {
      std::fprintf(stderr, "malformed value for --rps: '%s'\n", text.c_str());
      std::exit(2);
    }
    out.push_back(static_cast<double>(*v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "fig4", /*default_duration_s=*/15, /*default_seed=*/42,
      {"rps", "warmup", "cooldown", "csv"});
  const util::Flags& flags = options.flags;
  const std::vector<double> rps_levels =
      parse_rps_list(flags.get_or("rps", "10,20,30,40,50"));
  const auto duration = sim::seconds(options.duration_s);
  const std::int64_t warmup_s = workload::int_flag_or_exit(flags, "warmup", 4);
  const std::int64_t cooldown_s =
      workload::int_flag_or_exit(flags, "cooldown", 2);
  const auto seed = options.seed;

  std::printf(
      "FIG4: HTTP request latency of the latency-sensitive workload vs "
      "offered RPS,\nwith and without cross-layer optimization "
      "(e-library app, 1 Gbps reviews->ratings bottleneck,\nLI responses "
      "~200x larger, uniform-random arrivals).\n\n");

  // One sweep point per (rps, cross_layer) pair; each runs its own
  // simulator and stores the typed result in its slot for the table.
  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::ElibraryScenarioResult> outcomes(
      rps_levels.size() * 2);
  for (std::size_t level = 0; level < rps_levels.size(); ++level) {
    const double rps = rps_levels[level];
    for (const bool cross_layer : {false, true}) {
      const std::size_t slot = level * 2 + (cross_layer ? 1 : 0);
      runner.add(
          {{"rps", stats::Table::num(rps, 0)},
           {"cross_layer", cross_layer ? "on" : "off"}},
          [rps, cross_layer, duration, warmup_s, cooldown_s, seed, slot,
           &outcomes] {
            workload::ElibraryScenario scenario =
                workload::fig4_scenario(rps, cross_layer);
            scenario.duration = duration;
            scenario.warmup = sim::seconds(warmup_s);
            scenario.cooldown = sim::seconds(cooldown_s);
            scenario.seed = seed;
            outcomes[slot] = workload::run_elibrary_scenario(scenario);
            return workload::elibrary_point_metrics(outcomes[slot]);
          });
    }
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"RPS", "p50 w/o (ms)", "p50 w/ (ms)", "p99 w/o (ms)",
                      "p99 w/ (ms)", "p50 gain", "p99 gain", "bneck util"});

  struct Row {
    double rps, p50_base, p50_opt, p99_base, p99_opt, util;
  };
  std::vector<Row> rows;
  for (std::size_t level = 0; level < rps_levels.size(); ++level) {
    const workload::ElibraryScenarioResult& base = outcomes[level * 2];
    const workload::ElibraryScenarioResult& opt = outcomes[level * 2 + 1];
    Row row{rps_levels[level], base.ls.p50_ms,  opt.ls.p50_ms,
            base.ls.p99_ms,    opt.ls.p99_ms,   opt.bottleneck_utilization};
    rows.push_back(row);
    table.add_row({stats::Table::num(row.rps, 0),
                   stats::Table::num(row.p50_base, 1),
                   stats::Table::num(row.p50_opt, 1),
                   stats::Table::num(row.p99_base, 1),
                   stats::Table::num(row.p99_opt, 1),
                   stats::Table::num(row.p50_base / row.p50_opt, 2) + "x",
                   stats::Table::num(row.p99_base / row.p99_opt, 2) + "x",
                   stats::Table::num(row.util, 2)});
  }

  std::printf("%s\n", table.to_string().c_str());

  // The paper's headline claim: ~1.5x improvement in p50 and p99 at load.
  const Row& top = rows.back();
  std::printf("at %.0f RPS: cross-layer optimization improves LS p50 %.2fx "
              "and p99 %.2fx (paper: ~1.5x)\n",
              top.rps, top.p50_base / top.p50_opt,
              top.p99_base / top.p99_opt);
  std::fprintf(stderr, "sweep: %zu points, %d threads, %.0f ms wall\n",
               sweep.points.size(), sweep.threads_used, sweep.wall_ms);

  if (flags.get_bool_or("csv", false)) {
    stats::Table csv({"rps", "p50_wo_ms", "p50_w_ms", "p99_wo_ms",
                      "p99_w_ms", "util"});
    for (const Row& r : rows) {
      csv.add_row({stats::Table::num(r.rps, 0), stats::Table::num(r.p50_base, 3),
                   stats::Table::num(r.p50_opt, 3),
                   stats::Table::num(r.p99_base, 3),
                   stats::Table::num(r.p99_opt, 3),
                   stats::Table::num(r.util, 4)});
    }
    std::printf("\n%s", csv.to_csv().c_str());
  }

  const stats::BenchReport report = workload::make_bench_report(
      "fig4",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"warmup_s", std::to_string(warmup_s)},
       {"cooldown_s", std::to_string(cooldown_s)},
       {"rps", flags.get_or("rps", "10,20,30,40,50")}},
      sweep);
  return workload::finish_harness(report, options);
}
