#pragma once

// The application-container runtime: a microservice that serves HTTP
// requests by (optionally) fanning out sub-requests to other services
// *through its sidecar* and composing the responses.
//
// The runtime cooperates with the mesh exactly the way Istio's bookinfo
// app does: it copies x-request-id and the B3 trace headers from the
// inbound request onto every sub-request it spawns. It does NOT copy the
// priority header by default — priority propagation is the mesh's job
// (the provenance filter), which is the paper's point: apps stay
// unmodified. Set propagate_priority_header=true to model the paper's
// front-end, which does copy the bits itself.

#include <cstdint>
#include <deque>
#include <utility>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/http_server.h"
#include "cluster/cluster.h"
#include "mesh/http_client.h"
#include "sim/random.h"

namespace meshnet::app {

/// One sub-request the handler wants issued (all SubCalls run in
/// parallel after the processing delay, like a typical async fan-out).
struct SubCall {
  std::string service;  ///< destination service (becomes the Host header)
  std::string path = "/";
  std::string method = "GET";
};

/// A handler's plan for serving one request.
struct HandlerResult {
  sim::Duration processing_delay = 0;
  std::vector<SubCall> calls;
  /// Bytes of this service's own contribution to the response body.
  std::size_t response_bytes = 128;
  /// Add the sub-responses' body bytes to the response (data flows up the
  /// call tree, which is what makes the e-library bottleneck carry the
  /// analytics bytes end to end).
  bool aggregate_sub_bodies = true;
  int status = 200;
};

using Handler = std::function<HandlerResult(const http::HttpRequest&)>;

struct MicroserviceOptions {
  net::Port app_port = 8080;
  net::Port sidecar_outbound_port = 15001;
  bool propagate_priority_header = false;
  std::size_t max_client_connections = 256;
  /// Respond 502 if any sub-call fails (else compose what arrived).
  bool fail_on_sub_error = true;

  /// Compute model: at most this many requests in service at once (a
  /// worker-per-request server); 0 = unlimited. Excess requests wait in
  /// an admission queue.
  int max_concurrency = 0;
  /// Order the admission queue by x-mesh-priority (paper §5 "prioritized
  /// request queuing" — extending prioritization from the network to the
  /// compute resource). FIFO within a class.
  bool priority_scheduling = false;
};

class Microservice {
 public:
  Microservice(sim::Simulator& sim, cluster::Pod& pod, Handler handler,
               MicroserviceOptions options = {});
  Microservice(const Microservice&) = delete;
  Microservice& operator=(const Microservice&) = delete;

  const cluster::Pod& pod() const noexcept { return pod_; }
  const std::string& service() const noexcept { return pod_.service(); }
  std::uint64_t requests_served() const noexcept {
    return server_->requests_served();
  }
  std::uint64_t sub_requests_sent() const noexcept { return sub_sent_; }
  int in_service() const noexcept { return in_service_; }
  std::uint64_t max_admission_queue_seen() const noexcept {
    return max_queue_seen_;
  }

 private:
  void serve(http::HttpRequest request, SimpleHttpServer::Responder respond);
  void admit(http::HttpRequest request, SimpleHttpServer::Responder respond);
  void finish_one();
  void fan_out(std::shared_ptr<http::HttpRequest> request,
               HandlerResult plan, SimpleHttpServer::Responder respond);

  sim::Simulator& sim_;
  cluster::Pod& pod_;
  Handler handler_;
  MicroserviceOptions options_;
  std::unique_ptr<SimpleHttpServer> server_;
  std::unique_ptr<mesh::HttpClientPool> sidecar_client_;
  std::uint64_t sub_sent_ = 0;
  int in_service_ = 0;
  std::deque<std::pair<http::HttpRequest, SimpleHttpServer::Responder>>
      admission_queue_;
  std::uint64_t max_queue_seen_ = 0;
};

}  // namespace meshnet::app
