// Component microbenchmarks (google-benchmark): the per-operation costs
// that bound how much simulated traffic the harness can push — event
// scheduling, qdisc enqueue/dequeue, link forwarding, HTTP codec, a bulk
// body relayed through transport, histogram recording.
// These back DESIGN.md's methodology note that full Fig. 4 sweeps are
// tractable on a laptop.
//
// Takes the standard harness flags (--json-out writes the meshnet-bench
// report with one point per benchmark) alongside google-benchmark's own
// --benchmark_* flags. Times are wall-clock and machine-dependent, so
// --baseline comparisons need a generous --tolerance (they are NOT
// deterministic like the simulator benches).

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "http/codec.h"
#include "mesh/telemetry.h"
#include "net/link.h"
#include "net/network.h"
#include "net/payload.h"
#include "net/qdisc.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "transport/connection.h"
#include "transport/transport_host.h"
#include "workload/bench_harness.h"

using namespace meshnet;

// The counting global operator new lives in alloc_counter.cc (shared by
// every bench binary); the scheduler/payload benches read it to report
// allocations per operation (the zero-alloc claim, measured).

static void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

namespace {

// Retry-timer churn: the sidecar/RTO pattern. Every fire re-arms itself
// and cancels + re-arms a neighbour (an ACK disarming a retransmit
// timer), so half of all scheduled timers are cancelled before they fire.
struct Churn {
  sim::Simulator sim;
  std::array<sim::EventId, 256> timers{};
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  int remaining = 20000;

  void arm(int slot) {
    if (remaining <= 0) return;
    --remaining;
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const sim::Duration delay =
        1 + static_cast<sim::Duration>((rng >> 33) % 2'000'000);  // <= 2 ms
    timers[static_cast<std::size_t>(slot)] =
        sim.schedule_after(delay, [this, slot] { fired(slot); });
  }

  void fired(int slot) {
    timers[static_cast<std::size_t>(slot)] = sim::kInvalidEventId;
    arm(slot);
    const int n = (slot + 1) & 255;
    if (timers[static_cast<std::size_t>(n)] != sim::kInvalidEventId) {
      sim.cancel(timers[static_cast<std::size_t>(n)]);
      timers[static_cast<std::size_t>(n)] = sim::kInvalidEventId;
      arm(n);
    }
  }

  std::uint64_t run() {
    for (int i = 0; i < 256; ++i) arm(i);
    sim.run();
    return sim.events_executed();
  }
};

}  // namespace

static void BM_SchedulerChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    Churn churn;
    const std::uint64_t before =
        workload::bench_allocation_count();
    events += churn.run();
    allocs += workload::bench_allocation_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_rep"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(events > 0 ? events : 1));
}
BENCHMARK(BM_SchedulerChurn);

// Bulk cancellation of far-future timers: the pattern that used to leave
// tombstones in the queue forever. Lazy compaction must keep this cheap.
static void BM_SchedulerCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(sim.schedule_after(sim::seconds(100) + i, [] {}));
    }
    for (const sim::EventId id : ids) sim.cancel(id);
    sim.schedule_after(1, [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerCancelHeavy);

// Steady-state packet flow through the pool: one block copy per "send",
// sliced into MSS segments, all refs dropped each round. Once the pool is
// warm this should be allocation-free.
static void BM_PayloadSendSlice(benchmark::State& state) {
  const std::string data(16 * 1024, 'x');
  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        workload::bench_allocation_count();
    net::Payload whole = net::Payload::copy_of(data);
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t len = std::min<std::size_t>(1460, data.size() - offset);
      net::Payload seg = whole.slice(offset, len);
      benchmark::DoNotOptimize(seg.view().data());
      offset += len;
    }
    allocs += workload::bench_allocation_count() - before;
    ++rounds;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(data.size()));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(rounds > 0 ? rounds : 1));
}
BENCHMARK(BM_PayloadSendSlice);

// One request through the unified telemetry pipeline: edge + cluster +
// total counters and a per-class latency histogram. After the first
// request interns the series, recording must be allocation-free — the
// label-handling refactor is gated on allocs_per_record staying at 0.
static void BM_TelemetryRecordRequest(benchmark::State& state) {
  obs::MetricRegistry registry;
  mesh::TelemetrySink sink(&registry);
  mesh::RequestSample sample;
  sample.source = "frontend";
  sample.upstream = "reviews";
  sample.status = 200;
  sample.latency = 1'500'000;
  sample.retries = 0;
  sample.priority = mesh::TrafficClass::kLatencySensitive;
  sink.record_request(sample);  // warm: intern every cell up front
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        workload::bench_allocation_count();
    sink.record_request(sample);
    allocs += workload::bench_allocation_count() - before;
    ++records;
  }
  benchmark::DoNotOptimize(sink.total_requests());
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["allocs_per_record"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(records > 0 ? records : 1));
}
BENCHMARK(BM_TelemetryRecordRequest);

static void BM_HistogramRecord(benchmark::State& state) {
  stats::LogHistogram histogram(7);
  std::uint64_t v = 12345;
  for (auto _ : state) {
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    histogram.record(v >> 32);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

static void BM_HistogramPercentile(benchmark::State& state) {
  stats::LogHistogram histogram(7);
  std::uint64_t v = 12345;
  for (int i = 0; i < 100000; ++i) {
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    histogram.record(v >> 40);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.percentile(99.0));
  }
}
BENCHMARK(BM_HistogramPercentile);

static void BM_FifoQdisc(benchmark::State& state) {
  net::FifoQdisc qdisc(1 << 30);
  net::Packet packet;
  packet.payload = net::Payload::filled(1400, 'x');
  for (auto _ : state) {
    qdisc.enqueue(packet);
    benchmark::DoNotOptimize(qdisc.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoQdisc);

static void BM_WeightedPrioQdisc(benchmark::State& state) {
  net::WeightedPrioQdisc qdisc({0.95, 0.05}, net::classify_by_dscp(),
                               1 << 30);
  net::Packet high;
  high.dscp = net::Dscp::kExpedited;
  high.payload = net::Payload::filled(1400, 'x');
  net::Packet low;
  low.dscp = net::Dscp::kScavenger;
  low.payload = high.payload;
  for (auto _ : state) {
    qdisc.enqueue(high);
    qdisc.enqueue(low);
    benchmark::DoNotOptimize(qdisc.dequeue());
    benchmark::DoNotOptimize(qdisc.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_WeightedPrioQdisc);

// Bursts of MTU packets through one link: qdisc, serialization event,
// propagation event, sink. The link's events capture only the link (the
// packets wait in its ring), so they never heap-allocate; what allocations
// remain are the FIFO qdisc's deque nodes.
static void BM_LinkForward(benchmark::State& state) {
  constexpr int kBurst = 100;
  sim::Simulator sim;
  net::Link link(sim, "l", 1e9, sim::microseconds(100),
                 std::make_unique<net::FifoQdisc>(1 << 30));
  std::uint64_t delivered = 0;
  link.set_sink([&](net::Packet) { ++delivered; });
  net::Packet packet;
  packet.payload = net::Payload::filled(1400, 'x');
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = workload::bench_allocation_count();
    for (int i = 0; i < kBurst; ++i) link.send(packet);
    sim.run();
    allocs += workload::bench_allocation_count() - before;
  }
  benchmark::DoNotOptimize(delivered);
  const double packets = static_cast<double>(state.iterations()) * kBurst;
  state.SetItemsProcessed(state.iterations() * kBurst);
  state.counters["allocs_per_packet"] =
      benchmark::Counter(static_cast<double>(allocs) / packets);
  state.counters["task_heap_allocs_per_packet"] = benchmark::Counter(
      static_cast<double>(sim.loop_stats().task_heap_allocs) / packets);
}
BENCHMARK(BM_LinkForward);

// One FIG4-sized (1.6 MB) response relayed end to end: serialize, segment
// over a Connection across a 10 Gbps link, reassemble and parse. Arg 0
// sends the body as a length-only tail (what the application does), arg 1
// as real bytes: the tail costs per segment, real bytes also per byte.
static void BM_BodyRelay(benchmark::State& state) {
  constexpr std::size_t kBodyBytes = 1'600'000;
  sim::Simulator sim;
  net::Network network(sim);
  const auto a = network.add_location("a");
  const auto b = network.add_location("b");
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    network.add_link(from, to, 10e9, sim::microseconds(10),
                     std::make_unique<net::FifoQdisc>(1 << 30));
  }
  const net::IpAddress ip_a = net::make_ip(10, 0, 0, 1);
  const net::IpAddress ip_b = net::make_ip(10, 0, 0, 2);
  network.attach_interface(ip_a, a);
  network.attach_interface(ip_b, b);
  transport::TransportHost host_a(sim, network, ip_a);
  transport::TransportHost host_b(sim, network, ip_b);
  http::HttpParser parser(http::ParserKind::kResponse);
  std::uint64_t body_bytes = 0;
  parser.set_on_response(
      [&](http::HttpResponse r) { body_bytes += r.body_size(); });
  host_b.listen(80, [&](transport::Connection& conn) {
    conn.set_on_data([&](const net::Payload& data) {
      parser.feed(data.view(), data.tail());
    });
  });
  transport::Connection& conn = host_a.connect({ip_b, 80});
  http::HttpResponse response;
  response.headers.set("x-app", "ratings");
  if (state.range(0) == 0) {
    response.body_tail = kBodyBytes;
  } else {
    response.body.assign(kBodyBytes, 'x');
  }
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = workload::bench_allocation_count();
    conn.send(http::serialize_response(response));
    sim.run();
    allocs += workload::bench_allocation_count() - before;
  }
  if (body_bytes != kBodyBytes * state.iterations()) {
    state.SkipWithError("relay lost body bytes");
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBodyBytes));
  state.counters["allocs_per_relay"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1));
}
BENCHMARK(BM_BodyRelay)->ArgName("real")->Arg(0)->Arg(1);

static void BM_HeaderMapGet(benchmark::State& state) {
  http::HeaderMap headers;
  headers.set("x-app", "frontend");
  headers.set(http::headers::Id::kHost, "reviews");
  headers.set(http::headers::Id::kRequestId, "req-1-abcdef");
  headers.set(http::headers::Id::kTraceId, "trace-0000000000000001");
  headers.set(http::headers::Id::kMeshPriority, "high");
  for (auto _ : state) {
    // Interned fast path (integer compare)...
    benchmark::DoNotOptimize(headers.get(http::headers::Id::kMeshPriority));
    // ...string name of a well-known header (interned per lookup)...
    benchmark::DoNotOptimize(headers.get("X-Mesh-Priority"));
    // ...and the slow path for an unknown name.
    benchmark::DoNotOptimize(headers.get("x-app"));
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_HeaderMapGet);

static void BM_HeaderMapSet(benchmark::State& state) {
  for (auto _ : state) {
    http::HeaderMap headers;
    headers.set(http::headers::Id::kHost, "reviews");
    headers.set(http::headers::Id::kRequestId, "req-1-abcdef");
    headers.set(http::headers::Id::kMeshPriority, "high");
    headers.set(http::headers::Id::kMeshPriority, "low");  // overwrite
    benchmark::DoNotOptimize(headers.size());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_HeaderMapSet);

// The microservice fan-out pattern: copy the propagated trace/identity
// headers from an inbound request onto a sub-request.
static void BM_HeaderPropagation(benchmark::State& state) {
  http::HeaderMap inbound;
  inbound.set(http::headers::Id::kRequestId, "req-1-abcdef");
  inbound.set(http::headers::Id::kTraceId, "trace-0000000000000001");
  inbound.set(http::headers::Id::kSpanId, "span-0000000000000002");
  inbound.set(http::headers::Id::kMeshPriority, "high");
  constexpr http::headers::Id kPropagated[] = {
      http::headers::Id::kRequestId,
      http::headers::Id::kTraceId,
      http::headers::Id::kSpanId,
      http::headers::Id::kMeshPriority,
  };
  for (auto _ : state) {
    http::HeaderMap sub;
    sub.set(http::headers::Id::kHost, "ratings");
    for (const http::headers::Id id : kPropagated) {
      if (const auto value = inbound.get(id)) sub.set(id, *value);
    }
    benchmark::DoNotOptimize(sub.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeaderPropagation);

static void BM_HttpSerializeRequest(benchmark::State& state) {
  http::HttpRequest request;
  request.method = "GET";
  request.path = "/product/42";
  request.headers.set(http::headers::kHost, "frontend");
  request.headers.set(http::headers::kRequestId, "req-1-abcdef");
  request.headers.set(http::headers::kMeshPriority, "high");
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::serialize_request(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HttpSerializeRequest);

static void BM_HttpParseResponse(benchmark::State& state) {
  http::HttpResponse response;
  response.status = 200;
  response.headers.set("x-app", "ratings");
  response.body.assign(static_cast<std::size_t>(state.range(0)), 'x');
  const std::string wire = http::serialize_response(response).materialize();
  http::HttpParser parser(http::ParserKind::kResponse);
  std::uint64_t parsed = 0;
  parser.set_on_response([&](http::HttpResponse) { ++parsed; });
  for (auto _ : state) {
    parser.feed(wire);
  }
  benchmark::DoNotOptimize(parsed);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_HttpParseResponse)->Arg(1024)->Arg(64 * 1024);

namespace {

// Console output as usual, plus a capture of every per-iteration run so
// the harness can emit the standard meshnet-bench report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_time_ns;
    double cpu_time_ns;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Captured captured;
      captured.name = run.benchmark_name();
      captured.real_time_ns = run.GetAdjustedRealTime();
      captured.cpu_time_ns = run.GetAdjustedCPUTime();
      for (const auto& [name, counter] : run.counters) {
        captured.counters.emplace_back(name, counter.value);
      }
      runs_.push_back(std::move(captured));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Captured>& runs() const { return runs_; }

 private:
  std::vector<Captured> runs_;
};

// Report point ids must be stable flag-style tokens: BM_Foo/1024 ->
// BM_Foo_1024.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == ':' || c == ' ') c = '_';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "micro", /*default_duration_s=*/0, /*default_seed=*/0,
      /*extra_flags=*/{}, /*extra_prefixes=*/{"benchmark_"});

  // google-benchmark parses argv itself and rejects flags it does not
  // know, so hand it only argv[0] and the --benchmark_* flags.
  std::vector<char*> bench_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  stats::BenchReport report;
  report.experiment = "micro";
  report.threads = 1;
  for (const CapturingReporter::Captured& run : reporter.runs()) {
    stats::BenchPoint point;
    point.id = sanitize(run.name);
    point.params.emplace_back("benchmark", run.name);
    point.scalars["real_time_ns"] = run.real_time_ns;
    point.scalars["cpu_time_ns"] = run.cpu_time_ns;
    for (const auto& [name, value] : run.counters) {
      point.scalars[name] = value;
    }
    report.points.push_back(std::move(point));
  }
  return workload::finish_harness(report, options);
}
