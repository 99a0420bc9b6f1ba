#include "mesh/tracing.h"

#include <algorithm>

namespace meshnet::mesh {

namespace {

constexpr std::string_view kTracePrefix = "trace";
constexpr std::string_view kSpanPrefix = "span";
constexpr std::size_t kHexDigits = 16;

/// Room for "<prefix>-" plus 16 hex digits.
using IdBuffer = char[32];

/// "<prefix>-%016llx" of `n`, in `buffer`.
std::string_view format_id(IdBuffer& buffer, std::string_view prefix,
                           std::uint64_t n) {
  static constexpr char kHex[] = "0123456789abcdef";
  prefix.copy(buffer, prefix.size());
  buffer[prefix.size()] = '-';
  char* digits = buffer + prefix.size() + 1;
  for (std::size_t i = kHexDigits; i-- > 0; n >>= 4) digits[i] = kHex[n & 0xf];
  return {buffer, prefix.size() + 1 + kHexDigits};
}

/// The number format_id(prefix, n) wrote into `text`, or 0 when `text`
/// has any other form.
std::uint64_t parse_id(std::string_view text, std::string_view prefix) {
  if (text.size() != prefix.size() + 1 + kHexDigits ||
      text.substr(0, prefix.size()) != prefix || text[prefix.size()] != '-') {
    return 0;
  }
  std::uint64_t n = 0;
  for (const char c : text.substr(prefix.size() + 1)) {
    if (c >= '0' && c <= '9') {
      n = n << 4 | static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      n = n << 4 | static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return 0;
    }
  }
  return n;
}

std::string id_string(std::string_view prefix, std::uint64_t n) {
  IdBuffer buffer;
  return std::string(format_id(buffer, prefix, n));
}

}  // namespace

OpenSpan Tracer::open_span(http::HeaderMap& headers, sim::Time now) {
  OpenSpan span;
  span.start = now;
  const std::string_view trace =
      headers.get_or(http::headers::Id::kTraceId, "");
  if (!trace.empty()) {
    span.trace = parse_id(trace, kTracePrefix);
    if (span.trace == 0) span.foreign_trace = trace;
    const std::string_view parent =
        headers.get_or(http::headers::Id::kSpanId, "");
    span.parent = parse_id(parent, kSpanPrefix);
    if (span.parent == 0) span.foreign_parent = parent;
  } else {
    span.trace = ++counter_;
  }
  span.span = ++counter_;

  IdBuffer buffer;
  headers.set(http::headers::Id::kTraceId,
              span.trace != 0 ? format_id(buffer, kTracePrefix, span.trace)
                              : std::string_view(span.foreign_trace));
  headers.set(http::headers::Id::kSpanId,
              format_id(buffer, kSpanPrefix, span.span));
  if (span.parent != 0) {
    headers.set(http::headers::Id::kParentSpanId,
                format_id(buffer, kSpanPrefix, span.parent));
  } else if (!span.foreign_parent.empty()) {
    headers.set(http::headers::Id::kParentSpanId, span.foreign_parent);
  }
  return span;
}

Span Tracer::record_of(const OpenSpan& span) {
  Span record;
  record.trace_id = span.trace != 0 ? id_string(kTracePrefix, span.trace)
                                    : span.foreign_trace;
  record.span_id = id_string(kSpanPrefix, span.span);
  record.parent_span_id = span.parent != 0
                              ? id_string(kSpanPrefix, span.parent)
                              : span.foreign_parent;
  record.start = span.start;
  return record;
}

void Tracer::finish_span(Span span, sim::Time now) {
  span.end = now;
  exporter_.export_span(std::move(span));
}

std::vector<const Span*> Tracer::trace(const std::string& trace_id) const {
  std::vector<const Span*> out;
  for (const Span& span : exporter_.spans()) {
    if (span.trace_id == trace_id) out.push_back(&span);
  }
  std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
    return a->start < b->start;
  });
  return out;
}

}  // namespace meshnet::mesh
