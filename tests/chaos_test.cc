// The chaos e-library experiment: determinism of the full run and the
// headline resilience claim — with health checking + retries + breaker
// the latency-sensitive workload rides through a reviews-replica crash,
// without them it visibly degrades.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "workload/elibrary_scenario.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {
namespace {

ElibraryScenario small_config(bool resilience = true) {
  ElibraryScenario config =
      chaos_scenario(resilience, /*fault_offset=*/sim::seconds(1),
                     /*fault_duration=*/sim::seconds(3));
  config.ls_rps = 20;
  config.li_rps = 5;
  config.warmup = sim::seconds(1);
  config.duration = sim::seconds(6);
  config.cooldown = sim::seconds(1);
  return config;
}

TEST(ChaosExperiment, DeterministicForSameSeed) {
  ElibraryScenario config = small_config();
  const ElibraryScenarioResult a = run_elibrary_scenario(config);
  const ElibraryScenarioResult b = run_elibrary_scenario(config);

  // Same seed => identical simulation, event for event.
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
  for (std::size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_EQ(a.fault_log[i].at, b.fault_log[i].at);
    EXPECT_EQ(a.fault_log[i].action, b.fault_log[i].action);
    EXPECT_EQ(a.fault_log[i].target, b.fault_log[i].target);
  }
  ASSERT_EQ(a.mesh_events.size(), b.mesh_events.size());
  for (std::size_t i = 0; i < a.mesh_events.size(); ++i) {
    EXPECT_EQ(a.mesh_events[i].at, b.mesh_events[i].at);
    EXPECT_EQ(a.mesh_events[i].kind, b.mesh_events[i].kind);
    EXPECT_EQ(a.mesh_events[i].subject, b.mesh_events[i].subject);
    EXPECT_EQ(a.mesh_events[i].detail, b.mesh_events[i].detail);
  }
  EXPECT_EQ(a.ls.completed, b.ls.completed);
  EXPECT_EQ(a.ls.errors, b.ls.errors);
  EXPECT_DOUBLE_EQ(a.ls.p99_ms, b.ls.p99_ms);
  EXPECT_EQ(a.li.completed, b.li.completed);

  // A different seed actually changes arrivals (guards against the seed
  // being ignored somewhere).
  config.seed += 1;
  const ElibraryScenarioResult c = run_elibrary_scenario(config);
  EXPECT_NE(a.events_executed, c.events_executed);
}

TEST(ChaosExperiment, ResilienceRidesThroughCrashBaselineDegrades) {
  // The CHAOS preset's defaults: 30/10 rps, 4+24+4 s windows, the fault
  // window 6 s into the measured window for 10 s.
  const ElibraryScenarioResult resilient =
      run_elibrary_scenario(chaos_scenario(true));
  const ElibraryScenarioResult baseline =
      run_elibrary_scenario(chaos_scenario(false));
  const PhaseSummary& r_before = resilient.phase("before");
  const PhaseSummary& r_during = resilient.phase("during");
  const PhaseSummary& r_after = resilient.phase("after");
  const PhaseSummary& b_during = baseline.phase("during");

  // Sanity: the fault window saw real traffic in both arms.
  EXPECT_GT(r_during.scheduled, 100u);
  EXPECT_GT(b_during.scheduled, 100u);

  // Resilient arm: health checking evicted the crashed replica and
  // readmitted it after restart; LS success held through the fault.
  EXPECT_GE(health_events(resilient, "evicted"), 1u);
  EXPECT_GE(health_events(resilient, "readmitted"), 1u);
  EXPECT_GE(r_before.success_rate, 0.99);
  EXPECT_GE(r_during.success_rate, 0.99);
  EXPECT_GE(r_after.success_rate, 0.99);
  // p99 recovers once the fault window closes: "after" looks like
  // "before" (generous 3x bound — both should be a few ms).
  EXPECT_LT(r_after.p99_ms, 3.0 * r_before.p99_ms + 5.0);

  // Baseline arm: no detection, no retries — requests routed to the dead
  // replica hang to the deadline and fail, so success during the fault
  // drops measurably.
  EXPECT_EQ(health_events(baseline, "evicted"), 0u);
  EXPECT_LT(b_during.success_rate, 0.90);
  EXPECT_LT(b_during.success_rate, r_during.success_rate - 0.05);
  // And its p99 during the fault is dominated by the request deadline.
  EXPECT_GT(b_during.p99_ms, r_during.p99_ms);
}

// The chaos experiment through the sweep runner: both arms (resilient and
// baseline) fan across worker threads, and the entire result — per-phase
// metrics, fault log, mesh event log, event counts — must be bit-identical
// at every thread count. The fault/mesh logs are the strongest witnesses:
// a single reordered event anywhere in the simulation changes them.
TEST(ChaosExperiment, SweepBitIdenticalAcrossThreadCounts) {
  const auto run_sweep = [](int threads) {
    SweepOptions options;
    options.threads = threads;
    SweepRunner runner(options);
    auto results = std::make_shared<std::vector<ElibraryScenarioResult>>(2);
    for (const bool resilience : {true, false}) {
      const std::size_t slot = resilience ? 0 : 1;
      runner.add({{"resilience", resilience ? "on" : "off"}},
                 [resilience, slot, results] {
                   (*results)[slot] =
                       run_elibrary_scenario(small_config(resilience));
                   const ElibraryScenarioResult& r = (*results)[slot];
                   PointMetrics metrics;
                   metrics.scalars["during_goodput_rps"] =
                       r.phase("during").goodput_rps;
                   metrics.scalars["during_p99_ms"] = r.phase("during").p99_ms;
                   metrics.counters["events"] = r.events_executed;
                   metrics.counters["fault_log"] = r.fault_log.size();
                   metrics.counters["mesh_events"] = r.mesh_events.size();
                   return metrics;
                 });
    }
    const SweepResult sweep = runner.run();
    return std::make_pair(sweep, results);
  };

  const auto [serial_sweep, serial_results] = run_sweep(1);
  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto [parallel_sweep, parallel_results] = run_sweep(threads);

    ASSERT_EQ(parallel_sweep.points.size(), serial_sweep.points.size());
    for (std::size_t i = 0; i < serial_sweep.points.size(); ++i) {
      EXPECT_EQ(parallel_sweep.points[i].id, serial_sweep.points[i].id);
      EXPECT_EQ(parallel_sweep.points[i].metrics.counters,
                serial_sweep.points[i].metrics.counters);
      for (const auto& [name, value] :
           serial_sweep.points[i].metrics.scalars) {
        EXPECT_EQ(parallel_sweep.points[i].metrics.scalars.at(name), value)
            << name;
      }
    }

    // Event-for-event equality of both arms' determinism witnesses.
    for (std::size_t arm = 0; arm < 2; ++arm) {
      const ElibraryScenarioResult& a = (*serial_results)[arm];
      const ElibraryScenarioResult& b = (*parallel_results)[arm];
      EXPECT_EQ(a.events_executed, b.events_executed);
      ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
      for (std::size_t i = 0; i < a.fault_log.size(); ++i) {
        EXPECT_EQ(a.fault_log[i].at, b.fault_log[i].at);
        EXPECT_EQ(a.fault_log[i].action, b.fault_log[i].action);
        EXPECT_EQ(a.fault_log[i].target, b.fault_log[i].target);
      }
      ASSERT_EQ(a.mesh_events.size(), b.mesh_events.size());
      for (std::size_t i = 0; i < a.mesh_events.size(); ++i) {
        EXPECT_EQ(a.mesh_events[i].at, b.mesh_events[i].at);
        EXPECT_EQ(a.mesh_events[i].kind, b.mesh_events[i].kind);
        EXPECT_EQ(a.mesh_events[i].subject, b.mesh_events[i].subject);
        EXPECT_EQ(a.mesh_events[i].detail, b.mesh_events[i].detail);
      }
      EXPECT_EQ(a.ls.completed, b.ls.completed);
      EXPECT_EQ(a.ls.errors, b.ls.errors);
      EXPECT_DOUBLE_EQ(a.ls.p99_ms, b.ls.p99_ms);
    }
  }
}

}  // namespace
}  // namespace meshnet::workload
