#include "app/elibrary.h"

#include <cstdlib>
#include <utility>

#include "util/strings.h"

namespace meshnet::app {

mesh::MeshPolicies ElibraryOptions::default_policies() {
  mesh::MeshPolicies policies;
  policies.retry.max_retries = 1;
  policies.retry.per_try_timeout = 0;
  policies.request_timeout = sim::seconds(60);
  // Jumbo-frame MSS: KIND veth pairs on one host commonly run large MTUs;
  // this also keeps the event count tractable (DESIGN.md §6).
  policies.transport_mss = 8960;
  return policies;
}

Elibrary::Elibrary(sim::Simulator& sim, ElibraryOptions options)
    : sim_(sim), options_(std::move(options)) {
  cluster::MeshBuilder builder(sim_);
  std::string error;
  mesh_ = builder.build(elibrary_mesh_spec(options_), &error);
  if (mesh_ == nullptr) {
    // The spec below is static, so this is unreachable short of a
    // programming error in this file.
    std::abort();
  }
  gateway_ = mesh_->gateway_pod();
  client_ = mesh_->pod(std::string(kClientPod));
}

cluster::MeshSpec elibrary_mesh_spec(const ElibraryOptions& options) {
  const std::size_t base = options.component_bytes;
  const std::size_t bulk = base * options.analytics_multiplier;
  const sim::Duration think = options.service_time;

  cluster::MeshSpec spec;
  spec.cluster.default_link_bps = 15e9;  // paper: 15 Gbps emulated links
  spec.cluster.default_link_delay = sim::microseconds(20);
  // One worker node, as in the paper's single-server KIND deployment.
  spec.nodes = {"kind-worker"};
  spec.policies = options.policies;

  spec.gateway.enabled = true;
  spec.gateway.port = Elibrary::kGatewayPort;

  MicroserviceOptions base_options;
  base_options.max_concurrency = options.app_max_concurrency;

  // frontend: fans out to details and reviews, regardless of workload;
  // the path decides which flavour the downstream serves.
  {
    cluster::ServiceSpec frontend;
    frontend.name = "frontend";
    frontend.calls = {"details", "reviews"};
    frontend.app = base_options;
    frontend.app.propagate_priority_header = true;
    frontend.handler = [base, think](const http::HttpRequest& request) {
      HandlerResult plan;
      plan.processing_delay = think;
      plan.response_bytes = base / 4;
      const bool analytics =
          util::starts_with(request.path, Elibrary::kLiPathPrefix);
      const std::string item = std::string(
          request.path.substr(request.path.find_last_of('/') + 1));
      plan.calls.push_back(SubCall{"details", "/details/" + item});
      plan.calls.push_back(SubCall{
          "reviews",
          (analytics ? "/reviews/analytics/" : "/reviews/") + item});
      return plan;
    };
    spec.services.push_back(std::move(frontend));
  }

  // details: a leaf; always small.
  {
    cluster::ServiceSpec details;
    details.name = "details";
    details.app = base_options;
    details.handler = [base, think](const http::HttpRequest&) {
      HandlerResult plan;
      plan.processing_delay = think;
      plan.response_bytes = base;
      return plan;
    };
    spec.services.push_back(std::move(details));
  }

  // reviews (two replicas, same code): calls ratings; analytics paths ask
  // ratings for the bulk payload. The replicas are labelled priority
  // high/low so priority-subset routing has somewhere to route.
  {
    cluster::ServiceSpec reviews;
    reviews.name = "reviews";
    reviews.replicas = 2;
    reviews.calls = {"ratings"};
    reviews.app = base_options;
    cluster::PodOptions high;
    high.labels = {{"priority", "high"}, {"version", "v1"}};
    cluster::PodOptions low;
    low.labels = {{"priority", "low"}, {"version", "v2"}};
    reviews.replica_options = {high, low};
    reviews.handler = [base, think](const http::HttpRequest& request) {
      HandlerResult plan;
      plan.processing_delay = think;
      plan.response_bytes = base / 2;
      const bool analytics =
          util::starts_with(request.path, "/reviews/analytics/");
      const std::string item = std::string(
          request.path.substr(request.path.find_last_of('/') + 1));
      plan.calls.push_back(SubCall{
          "ratings", (analytics ? "/ratings/bulk/" : "/ratings/") + item});
      return plan;
    };
    spec.services.push_back(std::move(reviews));
  }

  // ratings: the leaf behind the bottleneck; bulk requests return the
  // ~200x analytics payload.
  {
    cluster::ServiceSpec ratings;
    ratings.name = "ratings";
    ratings.pod.link_bps = 1e9;  // paper: the 1 Gbps reviews<->ratings link
    ratings.app = base_options;
    ratings.handler = [base, bulk, think](const http::HttpRequest& request) {
      HandlerResult plan;
      plan.processing_delay = think;
      plan.response_bytes =
          util::starts_with(request.path, "/ratings/bulk/") ? bulk : base;
      return plan;
    };
    spec.services.push_back(std::move(ratings));
  }

  // The external client: a host outside the mesh with a fat pipe in.
  spec.external_pods.push_back(cluster::ExternalPodSpec{
      std::string(Elibrary::kClientPod), "",
      cluster::PodOptions{40e9, sim::microseconds(50), {}}});
  return spec;
}

net::SocketAddress Elibrary::gateway_address() const {
  return net::SocketAddress{gateway_->ip(), kGatewayPort};
}

net::Link& Elibrary::bottleneck_link() {
  return mesh_->pod(std::string(kBottleneckPod))->egress_link();
}

std::size_t Elibrary::expected_ls_body_bytes() const {
  const std::size_t base = options_.component_bytes;
  // frontend base/4 + details base + reviews (base/2 + ratings base)
  return base / 4 + base + base / 2 + base;
}

std::size_t Elibrary::expected_li_body_bytes() const {
  const std::size_t base = options_.component_bytes;
  return base / 4 + base + base / 2 +
         base * options_.analytics_multiplier;
}

}  // namespace meshnet::app
