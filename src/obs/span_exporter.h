#pragma once

// The span half of the observability layer. mesh::Tracer is a thin
// adapter over this pipeline: every finished span flows through
// export_span(), which (1) folds the span into per-service registry
// series — spans_total / span_errors_total / span_duration_ns, all
// labeled {service} — (2) fans it out to any attached sinks, and
// (3) retains it for inspection, bounded by the retention limit.
//
// Metrics are recorded even at retention 0 (the bench setting): that is
// what puts span statistics into the unified snapshot without paying for
// span storage on long runs.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "sim/time.h"

namespace meshnet::obs {

/// One finished span. mesh::Span is an alias of this type, so tracing
/// call sites and filters use it directly.
struct SpanRecord {
  std::string trace_id;
  std::string span_id;
  std::string parent_span_id;
  std::string service;
  std::string operation;
  sim::Time start = 0;
  sim::Time end = 0;
  bool error = false;

  sim::Duration duration() const noexcept { return end - start; }
};

class SpanExporter {
 public:
  /// When `registry` is non-null, every exported span updates the
  /// per-service series there.
  explicit SpanExporter(MetricRegistry* registry = nullptr);
  SpanExporter(const SpanExporter&) = delete;
  SpanExporter& operator=(const SpanExporter&) = delete;

  void export_span(SpanRecord span);

  /// True when exported records are kept or forwarded. When false a
  /// caller may skip building the record and call count_span instead.
  bool wants_records() const noexcept {
    return retention_ != 0 || !sinks_.empty();
  }

  /// What export_span does for a span no one keeps: counts it and folds
  /// it into the per-service series.
  void count_span(const std::string& service, bool error,
                  sim::Duration duration);

  /// Called for every exported span, regardless of retention.
  void add_sink(std::function<void(const SpanRecord&)> sink);

  /// Keep only the most recent `limit` spans (memory bound for long
  /// runs); 0 disables retention entirely — metrics and sinks still see
  /// every span.
  void set_retention(std::size_t limit) noexcept { retention_ = limit; }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  std::size_t span_count() const noexcept { return spans_.size(); }
  std::uint64_t exported_total() const noexcept { return exported_total_; }

  void clear();

 private:
  struct ServiceCells {
    Counter* total = nullptr;
    Counter* errors = nullptr;
    Histogram* duration = nullptr;
  };

  ServiceCells& cells_for(const std::string& service);

  MetricRegistry* registry_ = nullptr;
  std::map<std::string, ServiceCells, std::less<>> cells_;
  std::vector<std::function<void(const SpanRecord&)>> sinks_;
  std::size_t retention_ = SIZE_MAX;
  std::uint64_t exported_total_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace meshnet::obs
