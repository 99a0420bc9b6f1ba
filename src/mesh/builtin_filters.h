#pragma once

// Standard mesh filters that ship with every sidecar (the Istio-native
// functionality the case study builds on): distributed tracing, source
// service identity, request-id stamping, and authorization policy.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mesh/filter.h"
#include "mesh/tracing.h"
#include "sim/simulator.h"

namespace meshnet::mesh {

/// Creates a span per proxied request and propagates B3 trace context.
/// Also assigns an x-request-id when one is missing (ingress behaviour).
class TracingFilter final : public HttpFilter {
 public:
  TracingFilter(Tracer& tracer, sim::Simulator& sim, std::string service);

  std::string name() const override { return "tracing"; }
  FilterStatus on_request(RequestContext& ctx) override;
  void on_response(RequestContext& ctx, http::HttpResponse& response) override;

 private:
  Tracer& tracer_;
  sim::Simulator& sim_;
  std::string service_;
};

/// Stamps the caller's service identity onto outbound requests — the
/// header stands in for the mTLS peer certificate identity.
class SourceIdentityFilter final : public HttpFilter {
 public:
  explicit SourceIdentityFilter(std::string service)
      : service_(std::move(service)) {}

  std::string name() const override { return "source-identity"; }
  FilterStatus on_request(RequestContext& ctx) override;

 private:
  std::string service_;
};

/// Enforces destination allow-lists on the inbound side: if a policy for
/// `service` exists, only listed sources pass; others get 403.
class AuthorizationFilter final : public HttpFilter {
 public:
  AuthorizationFilter(std::string service,
                      const std::map<std::string, std::vector<std::string>>*
                          policies)
      : service_(std::move(service)), policies_(policies) {}

  std::string name() const override { return "authorization"; }
  FilterStatus on_request(RequestContext& ctx) override;

 private:
  std::string service_;
  const std::map<std::string, std::vector<std::string>>* policies_;
};

}  // namespace meshnet::mesh
