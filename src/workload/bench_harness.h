#pragma once

// Shared command-line front end for the bench binaries and example
// sweeps. Every binary that reproduces a figure/table row accepts the
// same harness flags:
//
//   --threads=N     sweep points fanned across N workers (0 = all cores;
//                   results are bit-identical at any N)
//   --json-out[=P]  write the machine-readable report (default path
//                   BENCH_<experiment>.json)
//   --baseline=P    after the run, compare against a committed baseline
//                   and exit 1 on regression (same rules as bench_check)
//   --tolerance=R   relative tolerance for --baseline comparisons
//   --duration=S    measured seconds per point
//   --seed=S        run-level PRNG seed
//
// plus any bench-specific flags the binary declares. Unknown or duplicate
// flags, and malformed numeric harness values, abort with exit code 2 (a
// typo must not silently run a default sweep).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats/bench_report.h"
#include "util/flags.h"
#include "workload/elibrary_scenario.h"
#include "workload/meshscale_experiment.h"
#include "workload/parsim_experiment.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {

struct HarnessOptions {
  int threads = 1;
  std::string json_out;   ///< empty = no report file
  std::string baseline;   ///< empty = no comparison
  double tolerance = 1e-9;
  std::int64_t duration_s = 0;
  std::uint64_t seed = 0;
  util::Flags flags;      ///< full parse, for bench-specific extras
};

/// Parses and validates argv against the standard harness flags plus
/// `extra_flags` (and `extra_prefixes`, for embedded libraries like
/// google-benchmark). Exits 2 on unknown/duplicate flags. The experiment
/// id decides the default --json-out path.
HarnessOptions parse_harness_flags(
    int argc, const char* const* argv, std::string_view experiment,
    std::int64_t default_duration_s, std::uint64_t default_seed,
    const std::vector<std::string_view>& extra_flags = {},
    const std::vector<std::string_view>& extra_prefixes = {});

/// Strict numeric flag readers for bench-specific flags: `fallback` when
/// the flag is absent, exit 2 naming the flag when its value does not
/// parse in full (util::Flags::get_*_or would silently fall back).
std::int64_t int_flag_or_exit(const util::Flags& flags, std::string_view name,
                              std::int64_t fallback);
double double_flag_or_exit(const util::Flags& flags, std::string_view name,
                           double fallback);

/// SweepOptions matching the parsed flags (progress lines on stderr).
SweepOptions sweep_options(const HarnessOptions& options);

/// Post-run bookkeeping: writes --json-out if requested, then compares
/// against --baseline if given. Returns the process exit code (0 ok,
/// 1 regression, 2 I/O or parse failure).
int finish_harness(const stats::BenchReport& report,
                   const HarnessOptions& options);

/// Process-lifetime count of global operator-new calls. The strong
/// definition lives in bench/alloc_counter.cc (its counting allocator is
/// linked into every bench binary); elsewhere a weak zero-returning
/// default applies and the allocation profile is simply omitted from
/// reports. finish_harness uses it for wall_allocs_per_event.
std::uint64_t bench_allocation_count() noexcept;

/// The standard metric sets for e-library scenario runs. Each is shared
/// by its bench/example and the matching determinism golden, so both
/// compare the same surface; registry-backed counters are read from the
/// run's snapshot (counter_total).
///
/// FIG4 family (FIG4, TXT-LI, ABL-COMP): per-workload p50/p90/p99/mean,
/// success rate, completion/error/event counters, the engine_* scheduler
/// profile and the raw latency histograms.
PointMetrics elibrary_point_metrics(const ElibraryScenarioResult& result);
/// OVERLOAD: per-workload latency, admission/shed/retry counters and the
/// latency histograms.
PointMetrics overload_point_metrics(const ElibraryScenarioResult& result);
/// CHAOS_CP: per-phase LS goodput, push-channel counters and convergence.
PointMetrics cp_point_metrics(const ElibraryScenarioResult& result);
/// MTLS: per-workload latency, the pre/post-storm phases, the tls_*
/// counter surface and bottleneck utilization.
PointMetrics mtls_point_metrics(const ElibraryScenarioResult& result);

/// The standard metric set for one PARSIM run: workload scalars/counters
/// (shard- and thread-invariant), the end-to-end latency histogram, the
/// workload metrics snapshot, and the engine surface (events, epochs,
/// messages, merged loop stats — thread-invariant for a fixed shard
/// count). Shared by bench/bench_parsim and the determinism tests so both
/// compare the same surface.
PointMetrics parsim_point_metrics(const ParsimExperimentResult& result);

/// The standard metric set for one MESHSCALE arm: workload counters and
/// the e2e latency histogram, the control-plane push-channel surface
/// (full/delta pushes and bytes, churn-window bytes, reconvergence),
/// per-sidecar endpoint-table sizes, and the engine shape. Shared by
/// bench/bench_meshscale and the determinism checks so both compare the
/// same surface.
PointMetrics meshscale_point_metrics(const MeshscaleExperimentResult& result);

}  // namespace meshnet::workload
