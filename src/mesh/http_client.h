#pragma once

// An HTTP/1.1 client connection pool over the simulated transport.
//
// One pool fronts one remote (ip, port) with one transport configuration
// (congestion controller + DSCP mark). The sidecar keys pools by
// (endpoint, traffic class), so latency-sensitive and scavenger requests
// ride *separate* transport connections — a prerequisite for per-class
// congestion control and packet marking (paper §4.2 b/c/d).
//
// HTTP/1.1 allows one outstanding request per connection; the pool grows
// up to max_connections and queues beyond that.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "http/codec.h"
#include "http/message.h"
#include "mesh/tls_session.h"
#include "net/address.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace meshnet::mesh {

class HttpClientPool {
 public:
  /// Client-side mTLS: when enabled, every connection the pool opens
  /// runs a TlsChannel handshake (resuming from the runtime's ticket
  /// cache when possible) and requests/responses ride encrypted
  /// records. `params` and `local_cert` point into the owning sidecar's
  /// running config so a rotation push reaches the next handshake
  /// without rewiring the pool.
  struct TlsClientOptions {
    bool enabled = false;
    const TlsParams* params = nullptr;
    const Certificate* local_cert = nullptr;
    TlsRuntime* runtime = nullptr;
  };

  struct Options {
    transport::ConnectionOptions connection;
    std::size_t max_connections = 64;
    /// Invoked whenever the pool opens a fresh transport connection
    /// (used by the cross-layer SDN coordinator to advertise flows).
    std::function<void(transport::Connection&)> on_connection_created;
    TlsClientOptions tls;
  };

  /// On success: (response, ""). On transport failure: (nullopt, reason).
  using ResponseHandler =
      std::function<void(std::optional<http::HttpResponse>, std::string)>;

  using RequestId = std::uint64_t;

  HttpClientPool(sim::Simulator& sim, transport::TransportHost& host,
                 net::SocketAddress remote, Options options,
                 std::string name = {});
  ~HttpClientPool();
  HttpClientPool(const HttpClientPool&) = delete;
  HttpClientPool& operator=(const HttpClientPool&) = delete;

  /// Issues a request; the handler fires exactly once unless the request
  /// is cancelled first.
  RequestId request(http::HttpRequest request, ResponseHandler handler);

  /// Cancels a queued or in-flight request. An in-flight cancel aborts
  /// the underlying connection (the response can no longer be matched).
  /// The handler is NOT called. Returns true if the request was found.
  bool cancel(RequestId id);

  const net::SocketAddress& remote() const noexcept { return remote_; }
  std::size_t active_requests() const noexcept { return active_; }
  std::size_t idle_connections() const noexcept;
  std::size_t queued_requests() const noexcept { return queue_.size(); }
  std::uint64_t connections_created() const noexcept { return created_; }
  std::uint64_t transport_failures() const noexcept { return failures_; }

  /// Mutable so cross-layer policy can retarget future connections
  /// (existing connections keep their class).
  Options& options() noexcept { return options_; }

 private:
  struct Slot {
    transport::Connection* conn = nullptr;
    std::unique_ptr<http::HttpParser> parser;
    std::shared_ptr<TlsChannel> tls;
    /// Failure detail for the handler when the slot dies (e.g. a TLS
    /// handshake error); empty means the generic connection reset.
    std::string close_reason;
    bool busy = false;
    RequestId request_id = 0;
    ResponseHandler handler;
  };

  struct Pending {
    RequestId id;
    http::HttpRequest request;
    ResponseHandler handler;
  };

  void dispatch();
  Slot* find_idle();
  Slot* create_slot();
  void assign(Slot& slot, Pending pending);
  void on_response(Slot& slot, http::HttpResponse response);
  void on_slot_closed(transport::Connection* conn);
  void remove_slot(const Slot& slot);

  sim::Simulator& sim_;
  transport::TransportHost& host_;
  net::SocketAddress remote_;
  Options options_;
  std::string name_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Requests waiting for a connection. A list: it allocates nothing
  /// until a request actually waits, which only happens at the cap.
  std::list<Pending> queue_;
  RequestId next_id_ = 1;
  std::size_t active_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t failures_ = 0;
  bool dispatching_ = false;
};

}  // namespace meshnet::mesh
