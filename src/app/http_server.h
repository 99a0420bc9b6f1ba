#pragma once

// A minimal asynchronous HTTP/1.1 server used by application containers
// (and tests). Accepts connections on one port, parses requests, and
// hands each to a handler together with a respond callback. Responses may
// complete asynchronously and out of order across connections; within a
// connection, HTTP/1.1 ordering is preserved.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "http/codec.h"
#include "http/message.h"
#include "transport/transport_host.h"

namespace meshnet::app {

class SimpleHttpServer {
 public:
  using Responder = std::function<void(http::HttpResponse)>;
  using Handler = std::function<void(http::HttpRequest, Responder)>;

  SimpleHttpServer(sim::Simulator& sim, transport::TransportHost& host,
                   net::Port port, Handler handler);
  SimpleHttpServer(const SimpleHttpServer&) = delete;
  SimpleHttpServer& operator=(const SimpleHttpServer&) = delete;

  std::uint64_t requests_served() const noexcept { return served_; }

 private:
  struct Session {
    std::uint64_t id = 0;
    transport::Connection* conn = nullptr;
    std::unique_ptr<http::HttpParser> parser;
    std::deque<http::HttpRequest> pending;
    bool busy = false;
  };

  void on_request(std::uint64_t session_id, http::HttpRequest request);
  void pump(Session& session);

  sim::Simulator& sim_;
  Handler handler_;
  std::uint64_t next_id_ = 1;
  std::uint64_t served_ = 0;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
};

}  // namespace meshnet::app
