// MTLS — the mTLS datapath's cost on the e-library, and session
// resumption as the mitigation for a mesh-wide handshake storm.
//
// Six arms through the sweep harness (--threads runs them in parallel,
// bit-identically):
//
//   plaintext     mesh-wide mTLS off (the overhead baseline)
//   mtls-full     mTLS on, session resumption off
//   mtls-resume   mTLS on, resumption on (the recommended config)
//   mtls-ratings  per-service knob: mTLS on *only* for the ratings
//                 service — the reviews->ratings bottleneck hop pays
//                 crypto, every other hop stays plaintext
//   storm-full    mTLS on, resumption off, mass pod restart mid-window
//   storm-resume  same storm, resumption on — cached tickets turn the
//                 reconnect wave into cheap resumed handshakes
//
// Acceptance (exit 1 on violation): mTLS shows a nonzero steady-state
// p50/p99 overhead over plaintext; the storm arms' post-restart p99
// recovers faster with resumption than without; full and resumed
// handshake counters are nonzero where the arm implies them; and the
// per-hop arm performs fewer handshakes than the mesh-wide one.

#include <cstdio>
#include <vector>

#include "workload/bench_harness.h"

using namespace meshnet;

namespace {

struct Arm {
  const char* name;
  bool mtls;
  bool resumption;
  bool storm;
  bool ratings_only;
};

constexpr Arm kArms[] = {
    {"plaintext", false, false, false, false},
    {"mtls-full", true, false, false, false},
    {"mtls-resume", true, true, false, false},
    {"mtls-ratings", false, true, false, true},
    {"storm-full", true, false, true, false},
    {"storm-resume", true, true, true, false},
};

/// One arm's figures for the tables and acceptance checks.
struct ArmView {
  const workload::ScenarioResult& r;
  std::uint64_t full;     ///< full handshakes
  std::uint64_t resumed;  ///< resumed handshakes
  std::uint64_t tickets;
  const workload::WindowSummary& pre;
  const workload::WindowSummary& post;
};

ArmView view(const workload::ScenarioResult& r) {
  return {r,
          r.metrics.counter_total("tls_handshakes_full_total"),
          r.metrics.counter_total("tls_handshakes_resumed_total"),
          r.metrics.counter_total("tls_tickets_issued_total"),
          r.phase("pre"),
          r.phase("post")};
}

/// Steady-state plaintext vs mTLS latency/goodput and the storm arms'
/// post-restart recovery, full vs resumed.
void print_comparison(const ArmView& plaintext, const ArmView& mtls_full,
                      const ArmView& mtls_resume, const ArmView& storm_full,
                      const ArmView& storm_resume) {
  std::printf("steady state (whole measured window):\n");
  std::printf("  %-12s %8s %8s %8s %8s %7s %6s %11s\n", "arm", "ls_p50",
              "ls_p99", "li_p50", "li_p99", "li_rps", "bneck", "handshakes");
  const auto steady_row = [](const char* arm, const ArmView& a) {
    std::printf("  %-12s %8.2f %8.2f %8.2f %8.2f %7.1f %6.3f %6llu+%llur\n",
                arm, a.r.ls().p50_ms, a.r.ls().p99_ms, a.r.li().p50_ms,
                a.r.li().p99_ms, a.r.li().goodput_rps,
                a.r.bottleneck_utilization,
                static_cast<unsigned long long>(a.full),
                static_cast<unsigned long long>(a.resumed));
  };
  steady_row("plaintext", plaintext);
  steady_row("mtls-full", mtls_full);
  steady_row("mtls-resume", mtls_resume);

  std::printf("handshake storm (LS workload, pre / post mass restart):\n");
  std::printf("  %-12s %9s %9s %10s %10s %11s\n", "arm", "pre_p99",
              "post_p99", "post_good", "post_succ", "handshakes");
  const auto storm_row = [](const char* arm, const ArmView& a) {
    std::printf("  %-12s %9.2f %9.2f %10.1f %9.2f%% %6llu+%llur\n", arm,
                a.pre.p99_ms, a.post.p99_ms, a.post.goodput_rps,
                100.0 * a.post.success_rate,
                static_cast<unsigned long long>(a.full),
                static_cast<unsigned long long>(a.resumed));
  };
  storm_row("storm-full", storm_full);
  storm_row("storm-resume", storm_resume);

  std::printf(
      "mTLS steady-state overhead: LS p50 +%.2f ms, LI p50 +%.2f ms, LI p99 "
      "+%.2f ms | resumption saves %.2f ms of post-storm p99\n",
      mtls_resume.r.ls().p50_ms - plaintext.r.ls().p50_ms,
      mtls_resume.r.li().p50_ms - plaintext.r.li().p50_ms,
      mtls_resume.r.li().p99_ms - plaintext.r.li().p99_ms,
      storm_full.post.p99_ms - storm_resume.post.p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const workload::Scenario base = workload::mtls_scenario(true, true, false);
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "mtls",
      /*default_duration_s=*/static_cast<std::int64_t>(
          sim::to_seconds(base.duration)),
      /*default_seed=*/base.seed, {"ls-rps", "li-rps"});
  const std::uint64_t seed = options.seed;
  const sim::Duration duration = sim::seconds(options.duration_s);
  const double ls_rps =
      util::double_flag_or_exit(options.flags, "ls-rps", base.workloads[0].rps);
  const double li_rps =
      util::double_flag_or_exit(options.flags, "li-rps", base.workloads[1].rps);

  std::printf(
      "MTLS: plaintext vs mTLS e-library, %llds window, seed %llu\n"
      "(storm arms: every service pod restarts mid-window; resumption is "
      "the measured mitigation)\n\n",
      static_cast<long long>(options.duration_s),
      static_cast<unsigned long long>(seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  const std::size_t arm_count = std::size(kArms);
  std::vector<workload::ScenarioResult> arms(arm_count);
  for (std::size_t i = 0; i < arm_count; ++i) {
    const Arm& arm = kArms[i];
    runner.add({{"arm", arm.name}},
               [arm, seed, duration, ls_rps, li_rps, i, &arms] {
                 workload::Scenario scenario = workload::mtls_scenario(
                     arm.mtls, arm.resumption, arm.storm);
                 scenario.seed = seed;
                 scenario.duration = duration;
                 scenario.workloads[0].rps = ls_rps;
                 scenario.workloads[1].rps = li_rps;
                 if (arm.ratings_only) {
                   scenario.mesh.policies.mtls_overrides["ratings"] = true;
                 }
                 arms[i] = workload::run_scenario(scenario);
                 return workload::mtls_point_metrics(arms[i]);
               });
  }
  const workload::SweepResult sweep = runner.run();

  const ArmView plaintext = view(arms[0]);
  const ArmView mtls_full = view(arms[1]);
  const ArmView mtls_resume = view(arms[2]);
  const ArmView mtls_ratings = view(arms[3]);
  const ArmView storm_full = view(arms[4]);
  const ArmView storm_resume = view(arms[5]);

  print_comparison(plaintext, mtls_full, mtls_resume, storm_full,
                   storm_resume);
  std::printf(
      "per-hop arm (ratings only): p50 %.2f ms, %llu full handshakes "
      "(mesh-wide arm: %llu)\n",
      mtls_ratings.r.ls().p50_ms,
      static_cast<unsigned long long>(mtls_ratings.full),
      static_cast<unsigned long long>(mtls_full.full));

  // The crypto cost lands where the bytes are: the bulk LI workload's
  // p50/p99 carry the per-record AEAD charge on every hop, and the LS
  // p50 carries the fixed per-request share.
  const bool overhead_ok =
      mtls_resume.r.ls().p50_ms > plaintext.r.ls().p50_ms &&
      mtls_resume.r.li().p50_ms > plaintext.r.li().p50_ms &&
      mtls_resume.r.li().p99_ms > plaintext.r.li().p99_ms;
  const bool storm_ok = storm_resume.post.p99_ms < storm_full.post.p99_ms &&
                        storm_resume.resumed > 0 && storm_full.full > 0;
  const bool counters_ok = plaintext.full == 0 && mtls_full.full > 0 &&
                           mtls_full.resumed == 0 && mtls_resume.tickets > 0;
  const bool per_hop_ok =
      mtls_ratings.full > 0 && mtls_ratings.full + mtls_ratings.resumed <
                                   mtls_full.full + mtls_full.resumed;
  std::printf(
      "\nacceptance:\n"
      "  mTLS steady-state p50/p99 overhead nonzero          %s\n"
      "  resumption cuts post-storm p99 (%.2f < %.2f ms)     %s\n"
      "  handshake counters consistent per arm               %s\n"
      "  per-hop arm handshakes < mesh-wide arm              %s\n",
      overhead_ok ? "PASS" : "FAIL", storm_resume.post.p99_ms,
      storm_full.post.p99_ms, storm_ok ? "PASS" : "FAIL",
      counters_ok ? "PASS" : "FAIL", per_hop_ok ? "PASS" : "FAIL");

  const stats::BenchReport report = workload::make_bench_report(
      "mtls",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", std::to_string(ls_rps)},
       {"li_rps", std::to_string(li_rps)}},
      sweep);
  const int harness_rc = workload::finish_harness(report, options);
  if (harness_rc != 0) return harness_rc;
  return (overhead_ok && storm_ok && counters_ok && per_hop_ok) ? 0 : 1;
}
