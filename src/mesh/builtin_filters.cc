#include "mesh/builtin_filters.h"

#include <algorithm>

namespace meshnet::mesh {

TracingFilter::TracingFilter(Tracer& tracer, sim::Simulator& sim,
                             std::string service)
    : tracer_(tracer), sim_(sim), service_(std::move(service)) {}

FilterStatus TracingFilter::on_request(RequestContext& ctx) {
  if (ctx.request.request_id().empty()) {
    char id[http::kRequestIdBytes];
    ctx.request.set_request_id(http::generate_request_id(id));
  }
  ctx.span = tracer_.open_span(ctx.request.headers, sim_.now());
  ctx.span_active = true;
  return FilterStatus::kContinue;
}

void TracingFilter::on_response(RequestContext& ctx,
                                http::HttpResponse& response) {
  if (!ctx.span_active) return;
  ctx.span_active = false;
  const bool error = response.status >= 500;
  obs::SpanExporter& exporter = tracer_.exporter();
  if (!exporter.wants_records()) {
    // Nothing keeps the record: skip formatting its strings.
    exporter.count_span(service_, error, sim_.now() - ctx.span.start);
    return;
  }
  Span span = Tracer::record_of(ctx.span);
  span.service = service_;
  span.operation =
      std::string(ctx.direction == FilterDirection::kInbound ? "in " : "out ") +
      ctx.request.method + " " + ctx.request.path;
  span.error = error;
  tracer_.finish_span(std::move(span), sim_.now());
}

FilterStatus SourceIdentityFilter::on_request(RequestContext& ctx) {
  if (ctx.direction == FilterDirection::kOutbound) {
    ctx.request.headers.set(http::headers::Id::kMeshSource, service_);
  }
  return FilterStatus::kContinue;
}

FilterStatus AuthorizationFilter::on_request(RequestContext& ctx) {
  if (ctx.direction != FilterDirection::kInbound || policies_ == nullptr) {
    return FilterStatus::kContinue;
  }
  const auto it = policies_->find(service_);
  if (it == policies_->end()) return FilterStatus::kContinue;  // allow all
  const std::string_view source =
      ctx.request.headers.get_or(http::headers::Id::kMeshSource, "");
  const auto& allowed = it->second;
  if (std::find(allowed.begin(), allowed.end(), source) != allowed.end()) {
    return FilterStatus::kContinue;
  }
  http::HttpResponse deny;
  deny.status = 403;
  deny.body = "RBAC: access denied for source '" + std::string(source) + "'";
  ctx.local_response = std::move(deny);
  return FilterStatus::kStopIteration;
}

}  // namespace meshnet::mesh
