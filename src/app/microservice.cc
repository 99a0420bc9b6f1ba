#include "app/microservice.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace meshnet::app {

namespace {
/// Headers the app copies from the inbound request onto sub-requests
/// (mesh cooperation contract; see class comment).
constexpr http::headers::Id kPropagatedHeaders[] = {
    http::headers::Id::kRequestId,
    http::headers::Id::kTraceId,
    http::headers::Id::kSpanId,
};
}  // namespace

Microservice::Microservice(sim::Simulator& sim, cluster::Pod& pod,
                           Handler handler, MicroserviceOptions options)
    : sim_(sim),
      pod_(pod),
      handler_(std::move(handler)),
      options_(options) {
  server_ = std::make_unique<SimpleHttpServer>(
      sim_, pod_.transport(), options_.app_port,
      [this](http::HttpRequest request, SimpleHttpServer::Responder respond) {
        serve(std::move(request), std::move(respond));
      });
  mesh::HttpClientPool::Options pool_options;
  pool_options.max_connections = options_.max_client_connections;
  // App <-> sidecar is pod-local loopback (64 KB MTU).
  pool_options.connection.mss = 65496;
  sidecar_client_ = std::make_unique<mesh::HttpClientPool>(
      sim_, pod_.transport(),
      net::SocketAddress{pod_.ip(), options_.sidecar_outbound_port},
      pool_options, pod_.name() + ":egress");
}

void Microservice::serve(http::HttpRequest request,
                         SimpleHttpServer::Responder respond) {
  if (options_.max_concurrency > 0 &&
      in_service_ >= options_.max_concurrency) {
    // All workers busy: wait for admission. With priority scheduling,
    // high-priority requests enter ahead of every queued low/default one.
    if (options_.priority_scheduling &&
        request.headers.get_or(http::headers::Id::kMeshPriority, "") == "high") {
      auto it = admission_queue_.begin();
      while (it != admission_queue_.end() &&
             it->first.headers.get_or(http::headers::Id::kMeshPriority, "") ==
                 "high") {
        ++it;
      }
      admission_queue_.emplace(it, std::move(request), std::move(respond));
    } else {
      admission_queue_.emplace_back(std::move(request), std::move(respond));
    }
    max_queue_seen_ =
        std::max<std::uint64_t>(max_queue_seen_, admission_queue_.size());
    return;
  }
  admit(std::move(request), std::move(respond));
}

void Microservice::finish_one() {
  if (in_service_ > 0) --in_service_;
  if (!admission_queue_.empty() &&
      (options_.max_concurrency == 0 ||
       in_service_ < options_.max_concurrency)) {
    auto [request, respond] = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    admit(std::move(request), std::move(respond));
  }
}

void Microservice::admit(http::HttpRequest request,
                         SimpleHttpServer::Responder respond) {
  ++in_service_;
  auto visit = std::make_shared<Visit>();
  visit->plan = handler_(request);
  visit->request = std::move(request);
  visit->respond = std::move(respond);
  // A degraded pod (fault injection) serves each request proportionally
  // slower; the factor is sampled at admission, like a CPU-starved worker.
  const sim::Duration delay = static_cast<sim::Duration>(
      static_cast<double>(visit->plan.processing_delay) *
      pod_.compute_multiplier());
  sim_.schedule_after(delay, [this, visit = std::move(visit)] {
    fan_out(visit);
  });
}

void Microservice::finish(Visit& visit) {
  http::HttpResponse response;
  if (visit.failed && options_.fail_on_sub_error) {
    response.status = 502;
    response.body = "upstream dependency failed";
  } else {
    response.status = visit.plan.status;
    response.body_tail = visit.body_bytes;
  }
  response.headers.set("x-app", pod_.service());
  visit.respond(std::move(response));
  // Release the worker slot once the response goes out.
  finish_one();
}

void Microservice::fan_out(const std::shared_ptr<Visit>& visit) {
  visit->outstanding = visit->plan.calls.size();
  visit->body_bytes = visit->plan.response_bytes;
  if (visit->outstanding == 0) {
    finish(*visit);
    return;
  }

  const http::HttpRequest& request = visit->request;
  for (const SubCall& call : visit->plan.calls) {
    http::HttpRequest sub;
    sub.method = call.method;
    sub.path = call.path;
    sub.headers.set(http::headers::Id::kHost, call.service);
    for (const http::headers::Id header : kPropagatedHeaders) {
      if (const auto value = request.headers.get(header)) {
        sub.headers.set(header, *value);
      }
    }
    if (options_.propagate_priority_header) {
      if (const auto value =
              request.headers.get(http::headers::Id::kMeshPriority)) {
        sub.headers.set(http::headers::Id::kMeshPriority, *value);
      }
    }
    ++sub_sent_;
    sidecar_client_->request(
        std::move(sub),
        [this, visit](std::optional<http::HttpResponse> response,
                      const std::string& /*error*/) {
          if (!response || !response->ok()) {
            visit->failed = true;
          } else if (visit->plan.aggregate_sub_bodies) {
            visit->body_bytes += response->body_size();
          }
          if (--visit->outstanding == 0) finish(*visit);
        });
  }
}

}  // namespace meshnet::app
