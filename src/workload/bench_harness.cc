#include "workload/bench_harness.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace meshnet::workload {

// Weak fallback: binaries that do not link bench/alloc_counter.cc (the
// examples) report no allocation profile. The attribute form is portable
// across the gcc/clang matrix; MSVC is not a supported toolchain here.
__attribute__((weak)) std::uint64_t bench_allocation_count() noexcept {
  return 0;
}

namespace {

/// strtoll/strtod over the whole value; exits 2 naming the flag when any
/// of it does not parse.
template <typename T>
T numeric_flag_or_exit(const util::Flags& flags, std::string_view name,
                       T fallback) {
  const std::optional<std::string> value = flags.get(name);
  if (!value) return fallback;
  char* end = nullptr;
  errno = 0;
  T parsed;
  if constexpr (std::is_integral_v<T>) {
    parsed = std::strtoll(value->c_str(), &end, 10);
  } else {
    parsed = std::strtod(value->c_str(), &end);
  }
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "malformed value for --%.*s: '%s'\n",
                 static_cast<int>(name.size()), name.data(), value->c_str());
    std::exit(2);
  }
  return parsed;
}

}  // namespace

std::int64_t int_flag_or_exit(const util::Flags& flags, std::string_view name,
                              std::int64_t fallback) {
  return numeric_flag_or_exit(flags, name, fallback);
}

double double_flag_or_exit(const util::Flags& flags, std::string_view name,
                           double fallback) {
  return numeric_flag_or_exit(flags, name, fallback);
}

HarnessOptions parse_harness_flags(
    int argc, const char* const* argv, std::string_view experiment,
    std::int64_t default_duration_s, std::uint64_t default_seed,
    const std::vector<std::string_view>& extra_flags,
    const std::vector<std::string_view>& extra_prefixes) {
  std::vector<std::string_view> known = {"threads",  "json-out", "baseline",
                                         "tolerance", "duration", "seed"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());

  HarnessOptions options;
  options.flags = util::Flags::parse_or_die(argc, argv, known, extra_prefixes);
  const util::Flags& flags = options.flags;
  options.threads = static_cast<int>(int_flag_or_exit(flags, "threads", 1));
  options.json_out = options.flags.get_or("json-out", "");
  if (options.json_out == "true") {  // bare --json-out
    options.json_out = "BENCH_" + std::string(experiment) + ".json";
  }
  options.baseline = options.flags.get_or("baseline", "");
  options.tolerance = double_flag_or_exit(flags, "tolerance", 1e-9);
  options.duration_s = int_flag_or_exit(flags, "duration", default_duration_s);
  options.seed = static_cast<std::uint64_t>(int_flag_or_exit(
      flags, "seed", static_cast<std::int64_t>(default_seed)));
  return options;
}

SweepOptions sweep_options(const HarnessOptions& options) {
  SweepOptions sweep;
  sweep.threads = options.threads;
  sweep.progress = true;
  return sweep;
}

int finish_harness(const stats::BenchReport& input,
                   const HarnessOptions& options) {
  stats::BenchReport report = input;
  // Engine throughput profile: host wall-clock events/sec across the
  // whole run. Lives under the top-level "engine" object and "wall_"
  // names, which the comparator never visits (machine-dependent).
  double total_events = 0.0;
  for (const stats::BenchPoint& point : report.points) {
    const auto it = point.counters.find("events");
    if (it != point.counters.end()) {
      total_events += static_cast<double>(it->second);
    }
  }
  if (total_events > 0.0 && report.wall_ms > 0.0) {
    report.engine.emplace_back("wall_events_total", total_events);
    report.engine.emplace_back("wall_events_per_sec",
                               total_events / (report.wall_ms / 1000.0));
  }
  // Allocation profile (zero-alloc discipline, measured): present only in
  // binaries that link the counting allocator. Process-lifetime counts,
  // so the per-event figure includes setup — an upper bound, comparable
  // run to run on the same binary, and like all wall_* fields never part
  // of baseline comparisons.
  const double total_allocs =
      static_cast<double>(bench_allocation_count());
  if (total_allocs > 0.0 && total_events > 0.0) {
    report.engine.emplace_back("wall_allocs_total", total_allocs);
    report.engine.emplace_back("wall_allocs_per_event",
                               total_allocs / total_events);
  }
  if (!options.json_out.empty()) {
    const std::string error = report.write_file(options.json_out);
    if (!error.empty()) {
      std::fprintf(stderr, "json-out: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu points)\n", options.json_out.c_str(),
                 report.points.size());
  }
  if (!options.baseline.empty()) {
    std::string error;
    const auto baseline = stats::load_report(options.baseline, &error);
    if (!baseline) {
      std::fprintf(stderr, "baseline: %s\n", error.c_str());
      return 2;
    }
    stats::CompareOptions compare;
    compare.default_tolerance = options.tolerance;
    const stats::CompareOutcome outcome =
        stats::compare_reports(*baseline, report.to_json(), compare);
    for (const std::string& failure : outcome.failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::printf("baseline %s: %zu comparisons, %zu failures — %s\n",
                options.baseline.c_str(), outcome.compared,
                outcome.failures.size(), outcome.ok ? "OK" : "REGRESSION");
    if (!outcome.ok) return 1;
  }
  return 0;
}

namespace {

/// Latency percentiles, throughput and in-window completion counters,
/// shared by every e-library metric set (which name the throughput
/// "<prefix><rps_suffix>").
void add_workload(PointMetrics& metrics, const std::string& prefix,
                  const WorkloadSummary& summary, const char* rps_suffix) {
  metrics.scalars[prefix + "_p50_ms"] = summary.p50_ms;
  metrics.scalars[prefix + "_p90_ms"] = summary.p90_ms;
  metrics.scalars[prefix + "_p99_ms"] = summary.p99_ms;
  metrics.scalars[prefix + "_mean_ms"] = summary.mean_ms;
  metrics.scalars[prefix + rps_suffix] = summary.achieved_rps;
  metrics.counters[prefix + "_completed"] = summary.completed;
  metrics.counters[prefix + "_errors"] = summary.errors;
}

double success_rate(const WorkloadSummary& summary) {
  const double total = static_cast<double>(summary.completed + summary.errors);
  return total > 0 ? static_cast<double>(summary.completed) / total : 1.0;
}

/// Scheduler profile. Deterministic (pure functions of the config, like
/// every other counter here), so safe in compared baselines, and
/// determinism witnesses for the event-loop internals.
void add_engine_counters(PointMetrics& metrics, const sim::LoopStats& loop) {
  metrics.counters["engine_scheduled"] = loop.scheduled;
  metrics.counters["engine_cancelled"] = loop.cancelled;
  metrics.counters["engine_wheel_pushes"] = loop.wheel_pushes;
  metrics.counters["engine_heap_pushes"] = loop.heap_pushes;
  metrics.counters["engine_due_merges"] = loop.due_merges;
  metrics.counters["engine_task_heap_allocs"] = loop.task_heap_allocs;
  metrics.counters["engine_max_queue_depth"] = loop.max_queue_depth;
}

/// Per-phase LS goodput, success rate and latency, keyed by phase name.
void add_phases(PointMetrics& metrics, const ElibraryScenarioResult& result) {
  for (const PhaseSummary& phase : result.phases) {
    metrics.scalars[phase.name + "_goodput_rps"] = phase.goodput_rps;
    metrics.scalars[phase.name + "_success_rate"] = phase.success_rate;
    metrics.scalars[phase.name + "_p50_ms"] = phase.p50_ms;
    metrics.scalars[phase.name + "_p99_ms"] = phase.p99_ms;
    metrics.counters[phase.name + "_scheduled"] = phase.scheduled;
    metrics.counters[phase.name + "_completed"] = phase.completed;
    metrics.counters[phase.name + "_errors"] = phase.errors;
  }
}

}  // namespace

PointMetrics elibrary_point_metrics(const ElibraryScenarioResult& result) {
  PointMetrics metrics;
  add_workload(metrics, "ls", result.ls, "_rps");
  add_workload(metrics, "li", result.li, "_rps");
  metrics.scalars["ls_success_rate"] = success_rate(result.ls);
  metrics.scalars["li_success_rate"] = success_rate(result.li);
  metrics.scalars["bottleneck_utilization"] = result.bottleneck_utilization;
  metrics.counters["bottleneck_drops"] = result.bottleneck_drops;
  metrics.counters["events"] = result.events_executed;
  add_engine_counters(metrics, result.loop_stats);
  metrics.histograms["ls_latency_ns"] = result.ls_latency;
  metrics.histograms["li_latency_ns"] = result.li_latency;
  metrics.snapshot = result.metrics;
  return metrics;
}

PointMetrics overload_point_metrics(const ElibraryScenarioResult& result) {
  PointMetrics metrics;
  add_workload(metrics, "ls", result.ls, "_achieved_rps");
  add_workload(metrics, "li", result.li, "_achieved_rps");
  // admission_* series (one per service/class/reason) folded into the
  // by-class and by-reason totals the acceptance criteria talk about.
  const obs::MetricsSnapshot& snap = result.metrics;
  const std::uint64_t ls_shed = counter_total(
      snap, "admission_shed_total", {{"class", "latency-sensitive"}});
  const std::uint64_t li_shed =
      counter_total(snap, "admission_shed_total", {{"class", "scavenger"}});
  metrics.counters["ls_shed"] = ls_shed;
  metrics.counters["li_shed"] = li_shed;
  metrics.counters["default_shed"] =
      counter_total(snap, "admission_shed_total") - ls_shed - li_shed;
  metrics.counters["shed_queue_full"] =
      counter_total(snap, "admission_shed_total", {{"reason", "queue-full"}});
  metrics.counters["shed_deadline"] =
      counter_total(snap, "admission_shed_total", {{"reason", "deadline"}});
  metrics.counters["shed_preempted"] =
      counter_total(snap, "admission_shed_total", {{"reason", "preempted"}});
  metrics.counters["admission_accepted"] =
      counter_total(snap, "admission_accepted_total");
  metrics.counters["admission_queued"] =
      counter_total(snap, "admission_queued_total");
  metrics.counters["upstream_retries"] = result.sidecars.upstream_retries;
  metrics.counters["retries_suppressed_by_overload"] =
      result.sidecars.retries_suppressed_by_overload;
  metrics.counters["timeouts"] = result.sidecars.timeouts;
  metrics.counters["events"] = result.events_executed;
  metrics.histograms["ls_latency_ms"] = result.ls_latency;
  metrics.histograms["li_latency_ms"] = result.li_latency;
  metrics.snapshot = result.metrics;
  return metrics;
}

PointMetrics cp_point_metrics(const ElibraryScenarioResult& result) {
  PointMetrics metrics;
  add_phases(metrics, result);
  metrics.scalars["ls_p99_ms"] = result.ls.p99_ms;
  metrics.scalars["li_p99_ms"] = result.li.p99_ms;
  metrics.scalars["reconverge_ms"] = result.reconverge_ms;
  metrics.scalars["max_staleness_ms"] = result.max_staleness_ms;
  metrics.counters["ls_completed"] = result.ls.completed;
  metrics.counters["ls_errors"] = result.ls.errors;
  metrics.counters["li_completed"] = result.li.completed;
  metrics.counters["li_errors"] = result.li.errors;
  const obs::MetricsSnapshot& snap = result.metrics;
  for (const char* name :
       {"push_attempts", "push_acks", "push_nacks", "push_retries",
        "push_dropped", "config_rollbacks", "cert_rotations"}) {
    metrics.counters[name] =
        counter_total(snap, "cp_" + std::string(name) + "_total");
  }
  metrics.counters["push_skipped_noop"] =
      counter_total(snap, "cp_push_skipped_noop");
  metrics.counters["final_epoch"] = result.final_epoch;
  metrics.counters["stale_sidecars_at_end"] = result.stale_sidecars_at_end;
  metrics.counters["converged"] = result.converged ? 1 : 0;
  metrics.counters["health_evictions"] = health_events(result, "evicted");
  metrics.counters["health_readmissions"] =
      health_events(result, "readmitted");
  metrics.counters["flap_damps"] = result.flap_damps;
  const mesh::SidecarStats& sidecars = result.sidecars;
  metrics.counters["upstream_retries"] = sidecars.upstream_retries;
  metrics.counters["retries_denied_by_budget"] =
      sidecars.retries_denied_by_budget;
  metrics.counters["panic_picks"] = sidecars.panic_picks;
  metrics.counters["timeouts"] = sidecars.timeouts;
  metrics.counters["upstream_failures"] = sidecars.upstream_failures;
  metrics.counters["faults_executed"] = result.fault_log.size();
  metrics.counters["events"] = result.events_executed;
  metrics.snapshot = result.metrics;
  return metrics;
}

PointMetrics mtls_point_metrics(const ElibraryScenarioResult& result) {
  PointMetrics metrics;
  add_workload(metrics, "ls", result.ls, "_rps");
  add_workload(metrics, "li", result.li, "_rps");
  add_phases(metrics, result);
  metrics.scalars["bottleneck_utilization"] = result.bottleneck_utilization;
  metrics.counters["bottleneck_drops"] = result.bottleneck_drops;
  // The mesh-wide tls_* registry counters, under their names minus
  // "_total".
  for (const char* name :
       {"handshakes_full", "handshakes_resumed", "handshake_failures",
        "tickets_issued", "resumptions_rejected", "session_cache_evictions",
        "records_encrypted", "records_decrypted", "bytes_encrypted",
        "bytes_decrypted", "alerts"}) {
    const std::string series = "tls_" + std::string(name);
    metrics.counters[series] = counter_total(result.metrics, series + "_total");
  }
  metrics.counters["cert_rotations"] =
      counter_total(result.metrics, "cp_cert_rotations_total");
  const mesh::SidecarStats& sidecars = result.sidecars;
  metrics.counters["upstream_retries"] = sidecars.upstream_retries;
  metrics.counters["timeouts"] = sidecars.timeouts;
  metrics.counters["upstream_failures"] = sidecars.upstream_failures;
  metrics.counters["downstream_aborts"] = sidecars.downstream_aborts;
  metrics.counters["faults_executed"] = result.fault_log.size();
  metrics.counters["events"] = result.events_executed;
  metrics.snapshot = result.metrics;
  return metrics;
}

PointMetrics parsim_point_metrics(const ParsimExperimentResult& result) {
  PointMetrics metrics;
  // Workload surface: invariant across shard AND thread counts (the
  // ShardInvariance property test compares exactly the non-engine_* keys
  // plus the snapshot).
  metrics.counters["requests_generated"] = result.requests_generated;
  metrics.counters["leaf_completions"] = result.leaf_completions;
  metrics.counters["service_visits"] = result.service_visits;
  // The e2e histogram is recorded in MICROSECONDS (see parsim_experiment).
  metrics.scalars["e2e_p50_ms"] =
      static_cast<double>(result.e2e_latency.percentile(50.0)) / 1000.0;
  metrics.scalars["e2e_p99_ms"] =
      static_cast<double>(result.e2e_latency.percentile(99.0)) / 1000.0;
  metrics.scalars["e2e_mean_ms"] = result.e2e_latency.mean() / 1000.0;
  metrics.histograms["e2e_latency_us"] = result.e2e_latency;
  metrics.snapshot = result.metrics;
  metrics.counters["services"] = static_cast<std::uint64_t>(result.services);
  metrics.counters["edges"] = static_cast<std::uint64_t>(result.edges);
  // Engine surface: thread-invariant for a fixed shard count, shard-
  // DEPENDENT otherwise — everything below is named engine_* (or is the
  // harness's "events" throughput counter) so shard comparisons can
  // exclude it wholesale.
  metrics.counters["events"] = result.events_executed;
  metrics.counters["engine_cut_edges"] =
      static_cast<std::uint64_t>(result.cut_edges);
  metrics.counters["engine_lookahead_ns"] =
      static_cast<std::uint64_t>(result.lookahead);
  metrics.counters["engine_epochs"] = result.engine.epochs;
  metrics.counters["engine_messages"] = result.engine.messages;
  metrics.counters["engine_mailbox_overflows"] =
      result.engine.mailbox_overflows;
  add_engine_counters(metrics, result.loop_stats);
  return metrics;
}

PointMetrics meshscale_point_metrics(const MeshscaleExperimentResult& result) {
  PointMetrics metrics;
  // Workload surface.
  metrics.counters["requests_generated"] = result.requests_generated;
  metrics.counters["responses"] = result.responses;
  metrics.counters["successes"] = result.successes;
  metrics.counters["failures"] = result.failures;
  metrics.scalars["success_rate"] =
      result.responses > 0 ? static_cast<double>(result.successes) /
                                 static_cast<double>(result.responses)
                           : 0.0;
  // The e2e histogram is recorded in MICROSECONDS (see the experiment).
  metrics.scalars["e2e_p50_ms"] =
      static_cast<double>(result.e2e_latency.percentile(50.0)) / 1000.0;
  metrics.scalars["e2e_p99_ms"] =
      static_cast<double>(result.e2e_latency.percentile(99.0)) / 1000.0;
  metrics.scalars["e2e_mean_ms"] = result.e2e_latency.mean() / 1000.0;
  metrics.histograms["e2e_latency_us"] = result.e2e_latency;
  metrics.snapshot = result.metrics;
  // Control-plane push-channel surface.
  metrics.counters["cp_epochs"] = result.epochs;
  metrics.counters["cp_pushes"] = result.cp_pushes;
  metrics.counters["cp_full_pushes"] = result.bytes.full_pushes;
  metrics.counters["cp_delta_pushes"] = result.bytes.delta_pushes;
  metrics.counters["cp_delta_fallbacks"] = result.bytes.delta_fallbacks;
  metrics.counters["cp_full_push_bytes"] = result.bytes.full_bytes;
  metrics.counters["cp_delta_push_bytes"] = result.bytes.delta_bytes;
  metrics.counters["cp_churn_push_bytes"] =
      result.churn_bytes.full_bytes + result.churn_bytes.delta_bytes;
  metrics.counters["cp_churn_pushes"] =
      result.churn_bytes.full_pushes + result.churn_bytes.delta_pushes;
  metrics.counters["cp_converged"] = result.converged ? 1 : 0;
  metrics.scalars["churn_convergence_ms"] =
      sim::to_milliseconds(result.churn_convergence);
  // Per-sidecar endpoint-table sizes (what scoping/subsetting bound).
  metrics.counters["sidecars"] = result.sidecars;
  metrics.counters["endpoint_entries"] = result.endpoint_entries;
  metrics.counters["max_endpoints_per_sidecar"] =
      result.max_endpoints_per_sidecar;
  metrics.scalars["mean_endpoints_per_sidecar"] =
      result.sidecars > 0 ? static_cast<double>(result.endpoint_entries) /
                                static_cast<double>(result.sidecars)
                          : 0.0;
  // Shape + engine surface (thread-invariant for a fixed cell count).
  metrics.counters["services"] = static_cast<std::uint64_t>(result.services);
  metrics.counters["cells"] = static_cast<std::uint64_t>(result.cells);
  metrics.counters["events"] = result.events_executed;
  metrics.counters["engine_epochs"] = result.engine.epochs;
  metrics.counters["engine_messages"] = result.engine.messages;
  return metrics;
}

}  // namespace meshnet::workload
