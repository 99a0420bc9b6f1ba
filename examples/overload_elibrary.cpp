// Overload e-library: priority-aware admission control past the knee.
//
// Sweeps offered load from half capacity to 3x capacity on the
// compute-bound e-library tuning, with the admission subsystem on and
// off. LS load is fixed (10 rps); LI analytics traffic fills the rest.
// The claim under test: at 2x overload, admission keeps LS p99 within
// 25% of its uncontended (0.5x) value while >= 90% of the shedding
// falls on LI traffic.
//
//   ./overload_elibrary [--seed=42] [--capacity-rps=30] [--ls-rps=10]
//                       [--duration=10] [--threads=N]
//                       [--json-out[=PATH]] [--baseline=P]
//
// Every (load_factor, admission) pair is an independent sweep point;
// --threads parallelizes them bit-identically.

#include <cstdio>
#include <string>

#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

constexpr double kLoadFactors[] = {0.5, 1.0, 2.0, 3.0};

std::string format_factor(double factor) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f", factor);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::ElibraryScenario defaults =
      workload::overload_scenario(2.0, true);
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "overload",
      /*default_duration_s=*/static_cast<std::int64_t>(
          sim::to_seconds(defaults.duration)),
      /*default_seed=*/defaults.seed, {"capacity-rps", "ls-rps"});
  const double capacity_rps =
      workload::double_flag_or_exit(options.flags, "capacity-rps", 90.0);
  const double ls_rps =
      workload::double_flag_or_exit(options.flags, "ls-rps", defaults.ls_rps);

  std::printf(
      "overload e-library: capacity ~%.0f rps, LS fixed at %.0f rps,\n"
      "load factors 0.5x..3x, admission on/off, seed %llu\n\n",
      capacity_rps, ls_rps, static_cast<unsigned long long>(options.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  const std::size_t num_factors = std::size(kLoadFactors);
  for (std::size_t i = 0; i < num_factors; ++i) {
    for (const bool admission : {true, false}) {
      runner.add({{"load", format_factor(kLoadFactors[i]) + "x"},
                  {"admission", admission ? "on" : "off"}},
                 [&options, capacity_rps, ls_rps, i, admission] {
                   workload::ElibraryScenario scenario =
                       workload::overload_scenario(kLoadFactors[i], admission,
                                                   capacity_rps, ls_rps);
                   scenario.seed = options.seed;
                   scenario.duration = sim::seconds(options.duration_s);
                   return workload::overload_point_metrics(
                       workload::run_elibrary_scenario(scenario));
                 });
    }
  }
  const workload::SweepResult sweep = runner.run();

  // Point 2i is load factor i with admission on, 2i+1 with it off.
  std::printf(
      "%-6s %-9s | %9s %7s %8s %8s | %9s %7s %8s | %7s %7s %8s\n", "load",
      "admission", "LS rps", "LS err", "LS p50", "LS p99", "LI rps", "LI err",
      "LI p99", "LS shed", "LI shed", "timeouts");
  for (std::size_t point = 0; point < sweep.points.size(); ++point) {
    const workload::PointMetrics& m = sweep.points[point].metrics;
    const auto count = [&m](const char* name) {
      return static_cast<unsigned long long>(m.counters.at(name));
    };
    std::printf(
        "%-6s %-9s | %9.1f %7llu %8.1f %8.1f | %9.1f %7llu %8.1f | %7llu "
        "%7llu %8llu\n",
        (format_factor(kLoadFactors[point / 2]) + "x").c_str(),
        point % 2 == 0 ? "on" : "off", m.scalars.at("ls_achieved_rps"),
        count("ls_errors"), m.scalars.at("ls_p50_ms"),
        m.scalars.at("ls_p99_ms"), m.scalars.at("li_achieved_rps"),
        count("li_errors"), m.scalars.at("li_p99_ms"), count("ls_shed"),
        count("li_shed"), count("timeouts"));
  }

  // The acceptance comparison: 2x overload vs the uncontended 0.5x point,
  // both with admission on.
  const workload::PointMetrics& uncontended = sweep.points[0].metrics;  // 0.5x
  const workload::PointMetrics& overloaded = sweep.points[4].metrics;   // 2.0x
  const auto count = [&overloaded](const char* name) {
    return overloaded.counters.at(name);
  };
  const double ls_p99 = overloaded.scalars.at("ls_p99_ms");
  const double base_p99 = uncontended.scalars.at("ls_p99_ms");
  const double p99_ratio = base_p99 > 0 ? ls_p99 / base_p99 : 0.0;
  const std::uint64_t total_shed =
      count("ls_shed") + count("li_shed") + count("default_shed");
  const double li_shed_share =
      total_shed > 0 ? static_cast<double>(count("li_shed")) /
                           static_cast<double>(total_shed)
                     : 1.0;
  std::printf(
      "\nat 2x overload (admission on):\n"
      "  LS p99 %.1f ms vs %.1f ms uncontended  -> ratio %.2f (goal <= 1.25)\n"
      "  sheds: LS %llu / LI %llu / default %llu -> %.1f%% on LI (goal >= "
      "90%%)\n"
      "  by reason: queue-full %llu, deadline %llu, preempted %llu\n"
      "  retries suppressed by overload marker: %llu\n",
      ls_p99, base_p99, p99_ratio,
      static_cast<unsigned long long>(count("ls_shed")),
      static_cast<unsigned long long>(count("li_shed")),
      static_cast<unsigned long long>(count("default_shed")),
      100.0 * li_shed_share,
      static_cast<unsigned long long>(count("shed_queue_full")),
      static_cast<unsigned long long>(count("shed_deadline")),
      static_cast<unsigned long long>(count("shed_preempted")),
      static_cast<unsigned long long>(
          count("retries_suppressed_by_overload")));

  const stats::BenchReport report = workload::make_bench_report(
      "overload",
      {{"seed", std::to_string(options.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"capacity_rps", std::to_string(capacity_rps)},
       {"ls_rps", std::to_string(ls_rps)}},
      sweep);
  return workload::finish_harness(report, options);
}
