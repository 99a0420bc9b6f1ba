// Tests for the open-loop load generator (wrk2 methodology), the latency
// recorder, the thread-pool sweep runner's determinism guarantee, and
// the scenario driver's presets.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "app/http_server.h"
#include "cluster/cluster.h"
#include "mesh/http_client.h"
#include "sim/simulator.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {

// Parameterized cases print their parameter into the test name; without
// these overloads gtest prints the parameter's raw bytes.
void PrintTo(ArrivalProcess arrival, std::ostream* os) {
  switch (arrival) {
    case ArrivalProcess::kUniformRandom:
      *os << "kUniformRandom";
      return;
    case ArrivalProcess::kPoisson:
      *os << "kPoisson";
      return;
  }
}

namespace {

TEST(LatencyRecorder, OnlyCountsInsideWindow) {
  LatencyRecorder recorder(sim::seconds(1), sim::seconds(2));
  recorder.record(sim::milliseconds(500), sim::milliseconds(600), true);
  recorder.record(sim::milliseconds(1500), sim::milliseconds(1600), true);
  recorder.record(sim::milliseconds(2500), sim::milliseconds(2600), true);
  EXPECT_EQ(recorder.count(), 1u);
}

TEST(LatencyRecorder, WindowBoundariesHalfOpen) {
  LatencyRecorder recorder(sim::seconds(1), sim::seconds(2));
  recorder.record(sim::seconds(1), sim::seconds(1), true);   // inclusive
  recorder.record(sim::seconds(2), sim::seconds(2), true);   // exclusive
  EXPECT_EQ(recorder.count(), 1u);
}

TEST(LatencyRecorder, ErrorsCountedSeparately) {
  LatencyRecorder recorder(0, sim::seconds(10));
  recorder.record(sim::seconds(1), sim::seconds(2), false);
  recorder.record(sim::seconds(1), sim::seconds(2), true);
  EXPECT_EQ(recorder.count(), 1u);
  EXPECT_EQ(recorder.errors(), 1u);
}

TEST(LatencyRecorder, PercentilesInMilliseconds) {
  LatencyRecorder recorder(0, sim::seconds(10));
  for (int i = 1; i <= 100; ++i) {
    recorder.record(0, sim::milliseconds(i), true);
  }
  EXPECT_NEAR(recorder.p50_ms(), 50.0, 1.0);
  EXPECT_NEAR(recorder.p99_ms(), 99.0, 1.5);
  EXPECT_NEAR(recorder.mean_ms(), 50.5, 1.0);
  EXPECT_NEAR(recorder.max_ms(), 100.0, 1.0);
}

TEST(LatencyRecorder, ThroughputOverWindow) {
  LatencyRecorder recorder(0, sim::seconds(10));
  for (int i = 0; i < 500; ++i) recorder.record(sim::seconds(1), sim::seconds(1), true);
  EXPECT_DOUBLE_EQ(recorder.throughput_rps(), 50.0);
}

TEST(LatencyRecorder, NegativeLatencyClampsToZero) {
  LatencyRecorder recorder(0, sim::seconds(10));
  recorder.record(sim::seconds(5), sim::seconds(4), true);  // clock skew
  EXPECT_EQ(recorder.percentile_ms(50), 0.0);
}

TEST(Factory, SimpleGetFactoryShapesRequests) {
  auto factory = simple_get_factory("frontend", "/product", 10);
  const http::HttpRequest r0 = factory(0);
  EXPECT_EQ(r0.method, "GET");
  EXPECT_EQ(r0.path, "/product/0");
  EXPECT_EQ(r0.headers.get_or(http::headers::kHost, ""), "frontend");
  EXPECT_EQ(factory(13).path, "/product/3");  // modulo applied
}

// ------------------------------------------ generators over a real sim --

class GeneratorFixture : public ::testing::Test {
 protected:
  GeneratorFixture() : cluster(sim) {
    cluster.add_node("n1");
    server_pod = &cluster.add_pod("n1", "srv", "srv", 0);
    client_pod = &cluster.add_pod("n1", "cli", "", 0);
    server = std::make_unique<app::SimpleHttpServer>(
        sim, server_pod->transport(), 8080,
        [this](http::HttpRequest, app::SimpleHttpServer::Responder respond) {
          sim.schedule_after(sim::milliseconds(service_ms),
                             [respond = std::move(respond)] {
                               respond(http::HttpResponse{200, {}, {}});
                             });
        });
    mesh::HttpClientPool::Options options;
    options.max_connections = 256;
    pool = std::make_unique<mesh::HttpClientPool>(
        sim, client_pod->transport(),
        net::SocketAddress{server_pod->ip(), 8080}, options);
  }

  WorkloadSpec spec_for(double rps, ArrivalProcess arrival) {
    WorkloadSpec spec;
    spec.name = "test";
    spec.rps = rps;
    spec.arrival = arrival;
    spec.make_request = simple_get_factory("srv", "/x");
    spec.start = 0;
    spec.end = sim::seconds(20);
    spec.measure_start = sim::seconds(1);
    spec.measure_end = sim::seconds(19);
    return spec;
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  cluster::Pod* server_pod;
  cluster::Pod* client_pod;
  std::unique_ptr<app::SimpleHttpServer> server;
  std::unique_ptr<mesh::HttpClientPool> pool;
  int service_ms = 1;
};

class ArrivalTest : public GeneratorFixture,
                    public ::testing::WithParamInterface<ArrivalProcess> {};

TEST_P(ArrivalTest, AchievesConfiguredRate) {
  OpenLoopGenerator gen(sim, *pool, spec_for(100, GetParam()), 42);
  gen.start();
  sim.run_until(sim::seconds(25));
  // 18 s measurement window at 100 rps: expect ~1800 completions.
  EXPECT_NEAR(static_cast<double>(gen.recorder().count()), 1800.0, 120.0);
  EXPECT_EQ(gen.failed(), 0u);
  EXPECT_EQ(gen.outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Arrivals, ArrivalTest,
                         ::testing::Values(ArrivalProcess::kUniformRandom,
                                           ArrivalProcess::kPoisson));

TEST_F(GeneratorFixture, OpenLoopKeepsSendingWhileServerIsSlow) {
  service_ms = 500;  // each request takes 0.5 s; at 50 rps load piles up
  OpenLoopGenerator gen(sim, *pool,
                        spec_for(50, ArrivalProcess::kUniformRandom), 42);
  gen.start();
  sim.run_until(sim::seconds(3));
  // An open loop must have sent ~150 requests by t=3s regardless of
  // completions (closed loop would have stalled at the concurrency cap).
  EXPECT_GT(gen.sent(), 100u);
  EXPECT_GT(gen.outstanding(), 20u);
}

TEST_F(GeneratorFixture, LatencyChargedFromScheduledTime) {
  service_ms = 100;
  OpenLoopGenerator gen(sim, *pool,
                        spec_for(20, ArrivalProcess::kUniformRandom), 42);
  gen.start();
  sim.run_until(sim::seconds(25));
  // Every request takes >= 100 ms service time.
  EXPECT_GE(gen.recorder().p50_ms(), 100.0);
}

TEST(OpenLoopDeterminism, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    sim::Simulator sim;
    cluster::Cluster cluster(sim);
    cluster.add_node("n1");
    cluster::Pod& server_pod = cluster.add_pod("n1", "srv", "srv", 0);
    cluster::Pod& client_pod = cluster.add_pod("n1", "cli", "", 0);
    app::SimpleHttpServer server(
        sim, server_pod.transport(), 8080,
        [](http::HttpRequest, app::SimpleHttpServer::Responder respond) {
          respond(http::HttpResponse{});
        });
    mesh::HttpClientPool pool(sim, client_pod.transport(),
                              net::SocketAddress{server_pod.ip(), 8080}, {});
    WorkloadSpec spec;
    spec.rps = 50;
    spec.arrival = ArrivalProcess::kUniformRandom;
    spec.make_request = simple_get_factory("srv", "/x");
    spec.end = sim::seconds(10);
    spec.measure_start = sim::seconds(1);
    spec.measure_end = sim::seconds(9);
    OpenLoopGenerator gen(sim, pool, spec, 7);
    gen.start();
    sim.run_until(sim::seconds(15));
    return std::make_pair(gen.recorder().count(), gen.recorder().p50_ms());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Sweep runner: the golden determinism guarantee. The FIG4 experiment at
// 40 RPS must produce bit-identical metrics — every scalar, counter and
// histogram bucket — no matter how many worker threads fan the points out.

SweepResult run_fig4_sweep(int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  for (const bool cross_layer : {false, true}) {
    runner.add({{"rps", "40"}, {"cross_layer", cross_layer ? "on" : "off"}},
               [cross_layer] {
                 Scenario config = fig4_scenario(40, cross_layer);
                 config.warmup = sim::seconds(1);
                 config.duration = sim::seconds(3);
                 config.cooldown = sim::seconds(1);
                 config.seed = 42;
                 return elibrary_point_metrics(run_scenario(config));
               });
  }
  return runner.run();
}

void expect_identical_sweeps(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + a.points[i].id);
    EXPECT_EQ(a.points[i].id, b.points[i].id);
    EXPECT_EQ(a.points[i].params, b.points[i].params);
    // Scalars must be bit-identical, not approximately equal: every point
    // computes its metrics on one thread from its own simulator, so there
    // is no legitimate source of divergence.
    ASSERT_EQ(a.points[i].metrics.scalars.size(),
              b.points[i].metrics.scalars.size());
    for (const auto& [name, value] : a.points[i].metrics.scalars) {
      ASSERT_TRUE(b.points[i].metrics.scalars.count(name)) << name;
      EXPECT_EQ(value, b.points[i].metrics.scalars.at(name)) << name;
    }
    EXPECT_EQ(a.points[i].metrics.counters, b.points[i].metrics.counters);
    ASSERT_EQ(a.points[i].metrics.histograms.size(),
              b.points[i].metrics.histograms.size());
    for (const auto& [name, histogram] : a.points[i].metrics.histograms) {
      ASSERT_TRUE(b.points[i].metrics.histograms.count(name)) << name;
      EXPECT_EQ(histogram, b.points[i].metrics.histograms.at(name)) << name;
    }
  }
  // The unified meshnet-metrics-v1 snapshots: per point and merged,
  // series-for-series including every histogram bucket.
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].metrics.snapshot, b.points[i].metrics.snapshot)
        << "snapshot of point " << a.points[i].id;
  }
  EXPECT_EQ(a.merged_snapshot, b.merged_snapshot);
}

TEST(SweepRunnerDeterminism, Fig4At40RpsBitIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_fig4_sweep(1);
  ASSERT_EQ(serial.points.size(), 2u);
  ASSERT_GT(serial.points[0].metrics.counters.at("ls_completed"), 0u);

  // One snapshot carries all four telemetry surfaces for the run: edge
  // metrics, span statistics, mesh events and engine counters.
  const obs::MetricsSnapshot& merged = serial.merged_snapshot;
  ASSERT_FALSE(merged.empty());
  const obs::SeriesSnapshot* edge_requests = merged.find(
      "mesh_requests_total",
      {{"source", "gateway"}, {"upstream", "frontend"}});
  ASSERT_NE(edge_requests, nullptr);
  EXPECT_GT(edge_requests->counter, 0u);
  const obs::SeriesSnapshot* spans =
      merged.find("spans_total", {{"service", "gateway"}});
  ASSERT_NE(spans, nullptr);
  EXPECT_GT(spans->counter, 0u);  // recorded even at retention 0
  EXPECT_GT(merged.find("engine_scheduled")->counter, 0u);
  // Event series are eagerly interned: present (zero) even though a
  // healthy Fig.4 run trips no breakers.
  const obs::SeriesSnapshot* breaker_events =
      merged.find("mesh_events_total", {{"kind", "breaker"}});
  ASSERT_NE(breaker_events, nullptr);
  EXPECT_EQ(breaker_events->counter, 0u);

  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult parallel = run_fig4_sweep(threads);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical_sweeps(serial, parallel);
  }
}

// The OVERLOAD experiment joins the determinism suite: a short 2x-knee
// sweep (admission on and off) must be bit-identical — every scalar,
// counter, histogram bucket and snapshot series — at any thread count.

SweepResult run_overload_sweep(int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  for (const bool admission : {true, false}) {
    runner.add({{"load", "2.0x"}, {"admission", admission ? "on" : "off"}},
               [admission] {
                 Scenario config = overload_scenario(2.0, admission);
                 config.warmup = sim::seconds(1);
                 config.duration = sim::seconds(3);
                 config.cooldown = sim::seconds(1);
                 config.seed = 42;
                 return overload_point_metrics(run_scenario(config));
               });
  }
  return runner.run();
}

TEST(OverloadDeterminism, TwoXKneeBitIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_overload_sweep(1);
  ASSERT_EQ(serial.points.size(), 2u);
  // The admission-on arm actually exercises the subsystem under test:
  // LS completes, the shedding lands on LI, and the admission_* series
  // reach the unified snapshot.
  const PointMetrics& on = serial.points[0].metrics;
  EXPECT_GT(on.counters.at("ls_completed"), 0u);
  EXPECT_GT(on.counters.at("li_shed"), 0u);
  EXPECT_EQ(on.counters.at("ls_shed"), 0u);
  ASSERT_FALSE(on.snapshot.empty());
  const obs::SeriesSnapshot* shed = on.snapshot.find(
      "admission_shed_total",
      {{"service", "frontend"},
       {"class", "scavenger"},
       {"reason", "queue-full"}});
  ASSERT_NE(shed, nullptr);
  EXPECT_GT(shed->counter, 0u);

  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult parallel = run_overload_sweep(threads);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical_sweeps(serial, parallel);
  }
}

// The CHAOS_CP experiment joins the determinism suite: a shortened CP
// outage + churn storm (both arms) must be bit-identical — every scalar,
// counter, histogram bucket and snapshot series — at any thread count.

SweepResult run_cp_chaos_sweep(int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  for (const bool outage : {true, false}) {
    runner.add({{"outage", outage ? "on" : "off"}}, [outage] {
      Scenario config = cp_chaos_scenario(
          outage, /*outage_offset=*/sim::seconds(1),
          /*outage_duration=*/sim::seconds(6),
          /*churn_period=*/sim::seconds(3));
      config.workloads[0].rps = 15.0;
      config.workloads[1].rps = 5.0;
      config.warmup = sim::seconds(1);
      config.duration = sim::seconds(10);
      config.cooldown = sim::seconds(1);
      config.seed = 42;
      return cp_point_metrics(run_scenario(config));
    });
  }
  return runner.run();
}

TEST(CpChaosDeterminism, OutageStormBitIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_cp_chaos_sweep(1);
  ASSERT_EQ(serial.points.size(), 2u);
  // The outage arm actually exercises the failure machinery: pushes flow,
  // the mesh ends converged with no stale sidecars, the outage leaves a
  // real staleness footprint, and churn drives real faults.
  const PointMetrics& outage = serial.points[0].metrics;
  EXPECT_GT(outage.counters.at("push_attempts"), 0u);
  EXPECT_EQ(outage.counters.at("converged"), 1u);
  EXPECT_EQ(outage.counters.at("stale_sidecars_at_end"), 0u);
  EXPECT_GT(outage.counters.at("faults_executed"), 2u);
  EXPECT_GT(outage.scalars.at("max_staleness_ms"), 1000.0);
  EXPECT_GT(outage.counters.at("during_completed"), 0u);
  ASSERT_FALSE(outage.snapshot.empty());
  const obs::SeriesSnapshot* crashes =
      outage.snapshot.find("cp_crashes_total");
  ASSERT_NE(crashes, nullptr);
  EXPECT_EQ(crashes->counter, 1u);
  // The control arm never crashes the control plane.
  const PointMetrics& control = serial.points[1].metrics;
  EXPECT_EQ(control.snapshot.find("cp_crashes_total")->counter, 0u);
  EXPECT_EQ(control.counters.at("converged"), 1u);

  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult parallel = run_cp_chaos_sweep(threads);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical_sweeps(serial, parallel);
  }
}

// The MTLS experiment joins the determinism suite: a shortened
// plaintext-vs-storm pair must be bit-identical — every scalar, counter,
// histogram bucket and snapshot series — at any thread count. The storm
// arm exercises the whole TLS surface: full handshakes, resumption,
// connection resets and the shared per-sidecar crypto clock.

SweepResult run_mtls_sweep(int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  for (const bool mtls : {true, false}) {
    runner.add({{"mtls", mtls ? "on" : "off"}}, [mtls] {
      // The plaintext control stays calm: storm only with mTLS.
      Scenario config =
          mtls_scenario(mtls, /*session_resumption=*/true, /*storm=*/mtls,
                        /*storm_offset=*/sim::seconds(5));
      config.workloads[0].rps = 15.0;
      config.workloads[1].rps = 5.0;
      config.warmup = sim::seconds(1);
      config.duration = sim::seconds(10);
      config.cooldown = sim::seconds(1);
      config.seed = 42;
      return mtls_point_metrics(run_scenario(config));
    });
  }
  return runner.run();
}

TEST(MtlsDeterminism, HandshakeStormBitIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_mtls_sweep(1);
  ASSERT_EQ(serial.points.size(), 2u);
  // The mTLS arm actually exercises the subsystem under test: traffic
  // completes, handshakes happen (full at startup, resumed after the
  // storm's reconnect wave), tickets flow, and the tls_* series reach
  // the unified snapshot.
  const PointMetrics& mtls = serial.points[0].metrics;
  EXPECT_GT(mtls.counters.at("ls_completed"), 0u);
  EXPECT_GT(mtls.counters.at("tls_handshakes_full"), 0u);
  EXPECT_GT(mtls.counters.at("tls_handshakes_resumed"), 0u);
  EXPECT_GT(mtls.counters.at("tls_tickets_issued"), 0u);
  EXPECT_GT(mtls.counters.at("tls_records_encrypted"), 0u);
  EXPECT_GT(mtls.counters.at("faults_executed"), 0u);
  ASSERT_FALSE(mtls.snapshot.empty());
  const obs::SeriesSnapshot* full =
      mtls.snapshot.find("tls_handshakes_full_total");
  ASSERT_NE(full, nullptr);
  EXPECT_GT(full->counter, 0u);
  // The plaintext control never touches the TLS layer.
  const PointMetrics& plain = serial.points[1].metrics;
  EXPECT_EQ(plain.counters.at("tls_handshakes_full"), 0u);
  EXPECT_EQ(plain.counters.at("tls_records_encrypted"), 0u);
  EXPECT_GT(plain.counters.at("ls_completed"), 0u);

  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult parallel = run_mtls_sweep(threads);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical_sweeps(serial, parallel);
  }
}

// Every scenario preset, at short windows, keeps the request ledger
// closed: after the drain each request has reached exactly one terminal
// outcome, the client pool is idle, and the phases partition the
// measured window (every in-window arrival of the first traffic class
// lands in exactly one phase).

struct PresetCase {
  const char* name;
  Scenario (*make)();
};

void PrintTo(const PresetCase& preset, std::ostream* os) { *os << preset.name; }

class ScenarioConservation : public ::testing::TestWithParam<PresetCase> {};

TEST_P(ScenarioConservation, EveryRequestTerminatesAndPhasesPartitionWindow) {
  Scenario scenario = GetParam().make();
  scenario.warmup = sim::seconds(1);
  scenario.duration = sim::seconds(6);
  scenario.cooldown = sim::seconds(1);
  const ScenarioResult r = run_scenario(scenario);

  ASSERT_EQ(r.workloads.size(), scenario.workloads.size());
  for (const WindowSummary& workload : r.workloads) {
    EXPECT_GT(workload.sent, 0u);
    EXPECT_EQ(workload.sent, workload.succeeded + workload.failed);
  }
  EXPECT_EQ(r.client_pending, 0u);

  ASSERT_EQ(r.phases.size(), scenario.phases.size());
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  for (const WindowSummary& phase : r.phases) {
    scheduled += phase.scheduled;
    completed += phase.completed;
    errors += phase.errors;
  }
  // The first generator's own window recorder saw every in-window
  // arrival terminate once; the phases must account for the same set.
  const WindowSummary& first = r.workloads.front();
  EXPECT_GT(scheduled, 0u);
  EXPECT_EQ(scheduled, first.completed + first.errors);
  EXPECT_EQ(completed, first.completed);
  EXPECT_EQ(errors, first.errors);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ScenarioConservation,
    ::testing::Values(
        PresetCase{"fig4", [] { return fig4_scenario(40, true); }},
        PresetCase{"chaos",
                   [] {
                     return chaos_scenario(false, sim::seconds(1),
                                           sim::seconds(3));
                   }},
        PresetCase{"cp_chaos",
                   [] {
                     return cp_chaos_scenario(true, sim::seconds(1),
                                              sim::seconds(4),
                                              sim::seconds(2));
                   }},
        PresetCase{"overload", [] { return overload_scenario(2.0, true); }},
        PresetCase{"mtls",
                   [] {
                     return mtls_scenario(true, true, true, sim::seconds(3));
                   }},
        PresetCase{"lb_policies",
                   [] {
                     return lb_policies_scenario(
                         mesh::LbPolicy::kLeastRequest, 300.0);
                   }},
        PresetCase{"compute_priority",
                   [] { return compute_priority_scenario(true, 100.0, 85.0); }},
        PresetCase{"meshscale",
                   [] {
                     return meshscale_scenario(10, 1, 42, sim::seconds(3),
                                               true, false);
                   }}),
    [](const ::testing::TestParamInfo<PresetCase>& info) {
      return std::string(info.param.name);
    });

// A MESHSCALE arm on a small mesh: the control plane reconverges after
// the churn, and the arm is a pure function of its inputs.
TEST(MeshscalePreset, ConvergesAfterChurnAndRepeats) {
  const auto run_arm = [] {
    std::vector<ScenarioResult> cells;
    for (int cell = 0; cell < 2; ++cell) {
      cells.push_back(run_scenario(
          meshscale_scenario(10, cell, 42, sim::seconds(1), true, false)));
    }
    return meshscale_point_metrics(cells);
  };
  const PointMetrics first = run_arm();
  EXPECT_GT(first.counters.at("requests_generated"), 0u);
  EXPECT_EQ(first.counters.at("responses"),
            first.counters.at("requests_generated"));
  EXPECT_EQ(first.counters.at("cp_converged"), 1u);
  EXPECT_GT(first.counters.at("cp_churn_pushes"), 0u);

  const PointMetrics second = run_arm();
  EXPECT_EQ(first.scalars, second.scalars);
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_TRUE(first.histograms == second.histograms);
}

TEST(MeshscalePreset, RejectsMeshesBelowFourServices) {
  EXPECT_THROW(meshscale_scenario(3, 0, 42, sim::seconds(1), true, false),
               std::invalid_argument);
}

// A malformed numeric harness flag exits 2 and names the flag instead of
// silently running the default sweep.
TEST(HarnessFlagsDeathTest, MalformedNumericFlagExitsTwoNamingIt) {
  // Re-exec instead of fork: earlier suites in this binary start threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* arg : {"--duration=1O", "--threads=x", "--tolerance=1e",
                          "--seed=4two"}) {
    SCOPED_TRACE(arg);
    const char* argv[] = {"bench", arg};
    const std::string flag =
        std::string(arg).substr(0, std::string(arg).find('='));
    EXPECT_EXIT(parse_harness_flags(2, argv, "test", 15, 42),
                ::testing::ExitedWithCode(2), "malformed value for " + flag);
  }
  const char* argv[] = {"bench", "--duration=7", "--seed=9"};
  const HarnessOptions options = parse_harness_flags(3, argv, "test", 15, 42);
  EXPECT_EQ(options.duration_s, 7);
  EXPECT_EQ(options.seed, 9u);
}

TEST(SweepRunner, ResultsArriveInInputOrderAndReportIsStable) {
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  constexpr int kPoints = 12;
  for (int i = 0; i < kPoints; ++i) {
    runner.add({{"i", std::to_string(i)}}, [i] {
      // Finish out of submission order on purpose.
      std::this_thread::sleep_for(
          std::chrono::milliseconds((kPoints - i) % 5));
      PointMetrics metrics;
      metrics.scalars["value"] = static_cast<double>(i);
      metrics.counters["one"] = 1;
      return metrics;
    });
  }
  const SweepResult result = runner.run();
  ASSERT_EQ(result.points.size(), static_cast<std::size_t>(kPoints));
  for (int i = 0; i < kPoints; ++i) {
    EXPECT_EQ(result.points[static_cast<std::size_t>(i)].id,
              "i=" + std::to_string(i));
    EXPECT_EQ(result.points[static_cast<std::size_t>(i)].metrics.scalars
                  .at("value"),
              static_cast<double>(i));
    EXPECT_EQ(result.points[static_cast<std::size_t>(i)].metrics.counters
                  .at("one"),
              1u);
  }

  const stats::BenchReport report =
      make_bench_report("order", {{"seed", "1"}}, result);
  EXPECT_EQ(report.points.size(), static_cast<std::size_t>(kPoints));
  EXPECT_EQ(report.points[3].id, "i=3");
}

TEST(SweepRunner, PointExceptionPropagates) {
  SweepRunner runner;
  runner.add({{"boom", "1"}},
             []() -> PointMetrics { throw std::runtime_error("sweep boom"); });
  EXPECT_THROW(runner.run(), std::runtime_error);
}

// The wall-clock acceptance claim (>=3x at --threads=8) only makes sense
// with real cores; on small CI machines this skips rather than flakes.
// Determinism — the part that can regress silently — is asserted above on
// every machine.
TEST(SweepRunnerSpeedup, ParallelSweepBeatsSerial) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  const auto build = [](SweepRunner& runner) {
    for (int i = 0; i < 8; ++i) {
      runner.add({{"i", std::to_string(i)}}, [i] {
        Scenario config = fig4_scenario(30, /*cross_layer=*/false);
        config.warmup = sim::seconds(1);
        config.duration = sim::seconds(2);
        config.seed = 42 + static_cast<std::uint64_t>(i);
        return elibrary_point_metrics(run_scenario(config));
      });
    }
  };
  SweepOptions serial_options;
  serial_options.threads = 1;
  SweepRunner serial(serial_options);
  build(serial);
  const double serial_ms = serial.run().wall_ms;

  SweepOptions parallel_options;
  parallel_options.threads = 8;
  SweepRunner parallel(parallel_options);
  build(parallel);
  const double parallel_ms = parallel.run().wall_ms;

  // Conservative bound (acceptance asks 3x on 8 cores; 2x keeps 4-core CI
  // machines green while still failing on any serialization regression).
  EXPECT_LT(parallel_ms * 2.0, serial_ms)
      << "serial " << serial_ms << " ms vs parallel " << parallel_ms
      << " ms";
}

}  // namespace
}  // namespace meshnet::workload
