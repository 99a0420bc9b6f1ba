#include "mesh/builtin_filters.h"

#include <algorithm>

namespace meshnet::mesh {

TracingFilter::TracingFilter(Tracer& tracer, sim::Simulator& sim,
                             std::string service)
    : tracer_(tracer), sim_(sim), service_(std::move(service)) {}

FilterStatus TracingFilter::on_request(RequestContext& ctx) {
  if (ctx.request.request_id().empty()) {
    ctx.request.set_request_id(http::generate_request_id());
  }
  const TraceContext parent = TraceContext::extract(ctx.request.headers);
  ctx.span = tracer_.start_span(
      service_,
      std::string(ctx.direction == FilterDirection::kInbound ? "in " : "out ") +
          ctx.request.method + " " + ctx.request.path,
      parent, sim_.now());
  ctx.span_active = true;
  TraceContext child;
  child.trace_id = ctx.span.trace_id;
  child.span_id = ctx.span.span_id;
  child.inject(ctx.request.headers, ctx.span.parent_span_id);
  return FilterStatus::kContinue;
}

void TracingFilter::on_response(RequestContext& ctx,
                                http::HttpResponse& response) {
  if (!ctx.span_active) return;
  ctx.span.error = response.status >= 500;
  tracer_.finish_span(std::move(ctx.span), sim_.now());
  ctx.span_active = false;
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
  const std::string source =
      ctx.request.headers.get_or(http::headers::Id::kMeshSource, "");
  const auto& allowed = it->second;
  if (std::find(allowed.begin(), allowed.end(), source) != allowed.end()) {
    return FilterStatus::kContinue;
  }
  http::HttpResponse deny;
  deny.status = 403;
  deny.body = "RBAC: access denied for source '" + source + "'";
  ctx.local_response = std::move(deny);
  return FilterStatus::kStopIteration;
}

}  // namespace meshnet::mesh
