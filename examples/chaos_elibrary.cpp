// Chaos e-library: the resilience claim under fault injection.
//
// Runs the LS/LI e-library workload twice while a FaultPlan crashes the
// reviews-v1 replica for 10s and flaps the ratings bottleneck vNIC:
//   arm 1  resilient — active health checking, circuit breakers, per-try
//          timeouts and budgeted retries;
//   arm 2  baseline  — all of that off, the mesh as a dumb pipe.
// Prints LS goodput / success rate / p50 / p99 for the before / during /
// after phases of both arms, plus eviction/retry counters.
//
//   ./chaos_elibrary [--seed=42] [--ls-rps=30] [--li-rps=10]
//                    [--fault-duration-s=10] [--duration=24]
//                    [--threads=N] [--json-out[=PATH]] [--baseline=P]
//
// The two arms are independent sweep points (--threads=2 runs them in
// parallel, bit-identically).

#include <cstdio>
#include <vector>

#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

workload::PointMetrics chaos_point_metrics(
    const workload::ScenarioResult& r) {
  workload::PointMetrics metrics;
  for (const workload::WindowSummary& phase : r.phases) {
    metrics.scalars[phase.name + "_goodput_rps"] = phase.goodput_rps;
    metrics.scalars[phase.name + "_success_rate"] = phase.success_rate;
    metrics.scalars[phase.name + "_p50_ms"] = phase.p50_ms;
    metrics.scalars[phase.name + "_p99_ms"] = phase.p99_ms;
    metrics.counters[phase.name + "_completed"] = phase.completed;
    metrics.counters[phase.name + "_errors"] = phase.errors;
  }
  metrics.counters["breaker_events"] =
      r.metrics.counter_total("mesh_events_total", {{"kind", "breaker"}});
  metrics.counters["health_evictions"] = workload::health_events(r, "evicted");
  metrics.counters["health_readmissions"] =
      workload::health_events(r, "readmitted");
  metrics.counters["upstream_retries"] = r.sidecars.upstream_retries;
  metrics.counters["retries_denied_by_budget"] =
      r.sidecars.retries_denied_by_budget;
  metrics.counters["fault_log_entries"] = r.fault_log.size();
  metrics.counters["mesh_events"] = r.mesh_events.size();
  metrics.counters["events"] = r.events_executed;
  metrics.snapshot = r.metrics;
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::Scenario defaults = workload::chaos_scenario(true);
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "chaos_elibrary",
      /*default_duration_s=*/static_cast<std::int64_t>(
          sim::to_seconds(defaults.duration)),
      /*default_seed=*/defaults.seed, {"ls-rps", "li-rps", "fault-duration-s"});
  const double ls_rps =
      util::double_flag_or_exit(options.flags, "ls-rps",
                                defaults.workloads[0].rps);
  const double li_rps =
      util::double_flag_or_exit(options.flags, "li-rps",
                                defaults.workloads[1].rps);
  const std::int64_t fault_duration_s =
      util::int_flag_or_exit(options.flags, "fault-duration-s", 10);

  std::printf(
      "chaos e-library: crash reviews-v1 + flap ratings-v1 for %llds, seed "
      "%llu\n\n",
      static_cast<long long>(fault_duration_s),
      static_cast<unsigned long long>(options.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::ScenarioResult> arms(2);
  for (const bool resilience : {true, false}) {
    const std::size_t slot = resilience ? 0 : 1;
    runner.add({{"resilience", resilience ? "on" : "off"}},
               [&options, ls_rps, li_rps, fault_duration_s, resilience, slot,
                &arms] {
                 workload::Scenario scenario = workload::chaos_scenario(
                     resilience, sim::seconds(6),
                     sim::seconds(fault_duration_s));
                 scenario.seed = options.seed;
                 scenario.duration = sim::seconds(options.duration_s);
                 scenario.workloads[0].rps = ls_rps;
                 scenario.workloads[1].rps = li_rps;
                 arms[slot] = workload::run_scenario(scenario);
                 return chaos_point_metrics(arms[slot]);
               });
  }
  const workload::SweepResult sweep = runner.run();

  std::printf("LS workload by phase (fault window = 'during'):\n");
  std::printf("  %-9s %-7s %8s %10s %9s %9s\n", "arm", "phase", "goodput",
              "success", "p50ms", "p99ms");
  for (std::size_t slot = 0; slot < 2; ++slot) {
    for (const workload::WindowSummary& p : arms[slot].phases) {
      std::printf("  %-9s %-7s %8.1f %9.2f%% %9.1f %9.1f\n",
                  slot == 0 ? "resilient" : "baseline", p.name.c_str(),
                  p.goodput_rps, 100.0 * p.success_rate, p.p50_ms, p.p99_ms);
    }
  }
  for (std::size_t slot = 0; slot < 2; ++slot) {
    const auto& c = sweep.points[slot].metrics.counters;
    std::printf(
        "%-10s %llu evictions, %llu readmissions, %llu breaker events, %llu "
        "retries (%llu denied by budget)\n",
        slot == 0 ? "resilient:" : "baseline:",
        static_cast<unsigned long long>(c.at("health_evictions")),
        static_cast<unsigned long long>(c.at("health_readmissions")),
        static_cast<unsigned long long>(c.at("breaker_events")),
        static_cast<unsigned long long>(c.at("upstream_retries")),
        static_cast<unsigned long long>(c.at("retries_denied_by_budget")));
  }

  std::printf("\nfault log (resilient arm):\n");
  for (const faults::FaultLogEntry& entry : arms[0].fault_log) {
    std::printf("  t=%8.3fs %-14s %-12s%s\n",
                sim::to_seconds(entry.at),
                std::string(faults::fault_action_name(entry.action)).c_str(),
                entry.target.c_str(), entry.applied ? "" : " (not applied)");
  }

  const stats::BenchReport report = workload::make_bench_report(
      "chaos_elibrary",
      {{"seed", std::to_string(options.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", std::to_string(ls_rps)},
       {"li_rps", std::to_string(li_rps)},
       {"fault_duration_s", std::to_string(fault_duration_s)}},
      sweep);
  return workload::finish_harness(report, options);
}
