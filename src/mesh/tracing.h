#pragma once

// Distributed tracing (paper §3.2 "better visibility").
//
// Sidecars create a span per request hop and propagate trace context via
// B3-style headers. The app runtime copies x-request-id and the b3 headers
// onto the sub-requests it spawns — exactly the cooperation Istio's
// bookinfo app performs — which is also what lets the provenance filter
// (core/) tie sub-requests back to the inbound request that caused them.
//
// The Tracer is a thin adapter over obs::SpanExporter: it owns id
// allocation and the open/finish API the filters use, while the exporter
// owns retention, sink fan-out, and the per-service span series in the
// unified metric registry.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "http/header_map.h"
#include "obs/span_exporter.h"
#include "sim/time.h"

namespace meshnet::mesh {

/// A span is exactly the exporter's record type; filters fill it in and
/// the exporter publishes it.
using Span = obs::SpanRecord;

/// Ids of a span the tracing filter holds open. The tracer mints ids as
/// "trace-%016llx" / "span-%016llx" of one counter; such an id is held as
/// its number and formatted only when it is written into a header or a
/// span record. An inherited id of any other form (minted outside this
/// tracer) is held verbatim.
struct OpenSpan {
  std::uint64_t trace = 0;   ///< 0: the trace id is foreign_trace
  std::uint64_t span = 0;
  std::uint64_t parent = 0;  ///< 0: foreign_parent ("" for no parent)
  std::string foreign_trace;
  std::string foreign_parent;
  sim::Time start = 0;
};

/// Allocates span ids and feeds finished spans to the exporter. One
/// tracer is shared mesh-wide (it stands in for the Jaeger/Zipkin backend
/// the control plane would export to).
class Tracer {
 public:
  /// Spans feed per-service series in `registry` when non-null.
  explicit Tracer(obs::MetricRegistry* registry = nullptr)
      : exporter_(registry) {}

  /// Opens a span under the trace context `headers` carry (trace id and
  /// span id; a root span with a fresh trace id when they carry none) and
  /// writes the child's context back into them: its trace id, its span id
  /// and, when it has one, its parent span id.
  OpenSpan open_span(http::HeaderMap& headers, sim::Time now);

  void finish_span(Span span, sim::Time now);

  /// A record of `span` with its ids formatted (service, operation and
  /// end left for the caller).
  static Span record_of(const OpenSpan& span);

  /// Retained finished spans (bounded by the retention limit).
  const std::vector<Span>& spans() const noexcept {
    return exporter_.spans();
  }
  std::size_t span_count() const noexcept { return exporter_.span_count(); }

  /// All spans belonging to one trace, in start order.
  std::vector<const Span*> trace(const std::string& trace_id) const;

  /// Keep only the most recent `limit` spans (memory bound for long
  /// runs); 0 disables retention (benches) — span *metrics* still flow to
  /// the registry, only storage is skipped.
  void set_retention(std::size_t limit) noexcept {
    exporter_.set_retention(limit);
  }

  void clear() { exporter_.clear(); }

  obs::SpanExporter& exporter() noexcept { return exporter_; }

 private:
  std::uint64_t counter_ = 0;
  obs::SpanExporter exporter_;
};

}  // namespace meshnet::mesh
