// CHAOS_CP e-library: control-plane outage under pod churn.
//
// Runs the LS/LI e-library workload twice:
//   arm 1  outage  — the control plane crashes for --outage-duration-s
//          while a churn storm alternately kills and restarts the two
//          reviews replicas; the data plane serves stale-while-revalidate
//          config until the control plane recovers and reconverges the
//          mesh with paced, jittered pushes;
//   arm 2  control — identical run with the control plane up throughout
//          (the goodput normalization baseline).
// Prints per-phase LS goodput for both arms, the during-outage goodput
// ratio, peak discovery staleness, reconvergence time and the push
// channel counters (attempts / acks / retries / noop-skips / rollbacks).
//
//   ./cp_chaos_elibrary [--seed=42] [--ls-rps=30] [--li-rps=10]
//                       [--duration=46] [--outage-duration-s=30]
//                       [--churn-period-s=4] [--threads=N]
//                       [--json-out[=PATH]] [--baseline=P]
//
// The two arms are independent sweep points (--threads=2 runs them in
// parallel, bit-identically).
//
// Acceptance (exit 1 on violation): during-outage LS goodput >= 0.9x the
// control arm, full reconvergence to the final epoch after recovery, and
// zero stale sidecars at the end of the run.

#include <cstdio>
#include <vector>

#include "workload/bench_harness.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::ElibraryScenario defaults =
      workload::cp_chaos_scenario(true);
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "cp",
      /*default_duration_s=*/static_cast<std::int64_t>(
          sim::to_seconds(defaults.duration)),
      /*default_seed=*/defaults.seed,
      {"ls-rps", "li-rps", "outage-duration-s", "churn-period-s"});
  const util::Flags& flags = options.flags;
  const double ls_rps =
      workload::double_flag_or_exit(flags, "ls-rps", defaults.ls_rps);
  const double li_rps =
      workload::double_flag_or_exit(flags, "li-rps", defaults.li_rps);
  const std::int64_t outage_s =
      workload::int_flag_or_exit(flags, "outage-duration-s", 30);
  const std::int64_t churn_s =
      workload::int_flag_or_exit(flags, "churn-period-s", 4);

  std::printf(
      "CHAOS_CP e-library: %llds control-plane outage + reviews churn "
      "storm\n(period %llds) inside a %llds window, seed %llu\n\n",
      static_cast<long long>(outage_s), static_cast<long long>(churn_s),
      static_cast<long long>(options.duration_s),
      static_cast<unsigned long long>(options.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<workload::ElibraryScenarioResult> arms(2);
  for (const bool outage : {true, false}) {
    const std::size_t slot = outage ? 0 : 1;
    runner.add({{"outage", outage ? "on" : "off"}},
               [&options, ls_rps, li_rps, outage_s, churn_s, outage, slot,
                &arms] {
                 workload::ElibraryScenario scenario =
                     workload::cp_chaos_scenario(
                         outage, sim::seconds(5), sim::seconds(outage_s),
                         sim::seconds(churn_s));
                 scenario.seed = options.seed;
                 scenario.duration = sim::seconds(options.duration_s);
                 scenario.ls_rps = ls_rps;
                 scenario.li_rps = li_rps;
                 arms[slot] = workload::run_elibrary_scenario(scenario);
                 return workload::cp_point_metrics(arms[slot]);
               });
  }
  const workload::SweepResult sweep = runner.run();
  const workload::ElibraryScenarioResult& outage_arm = arms[0];
  const workload::ElibraryScenarioResult& control_arm = arms[1];
  const auto& counters = sweep.points[0].metrics.counters;
  const auto count = [&counters](const char* name) {
    return static_cast<unsigned long long>(counters.at(name));
  };

  std::printf("LS workload by phase (CP outage = 'during'):\n");
  std::printf("  %-8s %-7s %8s %10s %9s %9s\n", "arm", "phase", "goodput",
              "success", "p50ms", "p99ms");
  for (const workload::ElibraryScenarioResult* arm :
       {&outage_arm, &control_arm}) {
    for (const workload::PhaseSummary& p : arm->phases) {
      std::printf("  %-8s %-7s %8.1f %9.2f%% %9.1f %9.1f\n",
                  arm == &outage_arm ? "outage" : "control", p.name.c_str(),
                  p.goodput_rps, 100.0 * p.success_rate, p.p50_ms, p.p99_ms);
    }
  }
  const double control_goodput = control_arm.phase("during").goodput_rps;
  const double ratio =
      control_goodput > 0
          ? outage_arm.phase("during").goodput_rps / control_goodput
          : 0.0;
  std::printf(
      "during-outage goodput ratio %.3f | staleness peak %.0f ms | "
      "reconverge %.0f ms | epoch %llu | stale sidecars %llu\n",
      ratio, outage_arm.max_staleness_ms, outage_arm.reconverge_ms,
      count("final_epoch"), count("stale_sidecars_at_end"));
  std::printf(
      "pushes: %llu attempts, %llu acks, %llu retries, %llu dropped, "
      "%llu noop-skips, %llu cert rotations | damped readmissions %llu\n",
      count("push_attempts"), count("push_acks"), count("push_retries"),
      count("push_dropped"), count("push_skipped_noop"),
      count("cert_rotations"), count("flap_damps"));
  std::printf(
      "data plane: %llu retries (%llu denied by budget), %llu panic picks, "
      "%llu deadline timeouts, %llu upstream failures\n",
      count("upstream_retries"), count("retries_denied_by_budget"),
      count("panic_picks"), count("timeouts"), count("upstream_failures"));

  std::printf("\nfault log (outage arm):\n");
  for (const faults::FaultLogEntry& entry : outage_arm.fault_log) {
    std::printf("  t=%8.3fs %-14s %-12s%s\n", sim::to_seconds(entry.at),
                std::string(faults::fault_action_name(entry.action)).c_str(),
                entry.target.c_str(), entry.applied ? "" : " (not applied)");
  }

  const bool goodput_ok = ratio >= 0.9;
  const bool reconverged =
      outage_arm.converged && outage_arm.stale_sidecars_at_end == 0;
  std::printf(
      "\nacceptance:\n"
      "  during-outage LS goodput ratio %.3f (goal >= 0.90)  %s\n"
      "  reconverged to epoch %llu, %llu stale sidecars      %s\n",
      ratio, goodput_ok ? "PASS" : "FAIL", count("final_epoch"),
      count("stale_sidecars_at_end"), reconverged ? "PASS" : "FAIL");

  const stats::BenchReport report = workload::make_bench_report(
      "cp",
      {{"seed", std::to_string(options.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", std::to_string(ls_rps)},
       {"li_rps", std::to_string(li_rps)},
       {"outage_duration_s", std::to_string(outage_s)},
       {"churn_period_s", std::to_string(churn_s)}},
      sweep);
  const int harness_rc = workload::finish_harness(report, options);
  if (harness_rc != 0) return harness_rc;
  return (goodput_ok && reconverged) ? 0 : 1;
}
