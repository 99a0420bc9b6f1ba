#pragma once

// The sidecar proxy (Envoy's role in Istio).
//
// Every pod gets one. It owns two listeners:
//  * inbound  (pod_ip:15006) — remote sidecars connect here; requests run
//    the inbound filter chain (authz, tracing, provenance) and are then
//    forwarded to the colocated app over the pod-local loopback.
//  * outbound (pod_ip:15001) — the local app sends its sub-requests here;
//    requests run the outbound filter chain (classification, provenance,
//    priority routing), are routed by Host header to an upstream cluster,
//    an endpoint is picked (subset + circuit breaker + load balancer),
//    and the request rides a pooled connection to the remote sidecar,
//    with retries and per-try timeouts.
//
// A sidecar with gateway_mode=true is an ingress gateway: its outbound
// listener is exposed on the gateway port and there is no local app.
//
// Traffic classes map to per-class transport policy (congestion-control
// algorithm + DSCP mark); pools are keyed by (endpoint, class) so classes
// never share a transport connection.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "http/codec.h"
#include "mesh/admission.h"
#include "mesh/circuit_breaker.h"
#include "mesh/filter.h"
#include "mesh/health_checker.h"
#include "mesh/http_client.h"
#include "mesh/load_balancer.h"
#include "mesh/telemetry.h"
#include "mesh/tls_session.h"
#include "mesh/tracing.h"
#include "net/fifo_ring.h"
#include "sim/random.h"
#include "transport/transport_host.h"

namespace meshnet::mesh {

struct RetryPolicy {
  int max_retries = 1;
  /// 0 disables the per-try timeout.
  sim::Duration per_try_timeout = 0;
  bool retry_on_5xx = true;
  bool retry_on_reset = true;
  sim::Duration backoff_base = sim::milliseconds(2);
  /// Cap on any single backoff sleep.
  sim::Duration backoff_max = sim::milliseconds(250);
  /// Decorrelated jitter (sleep = min(cap, uniform(base, 3*prev))) instead
  /// of deterministic linear backoff — avoids synchronized retry storms.
  bool backoff_jitter = true;

  /// Retry budget: retries may be at most this fraction of the cluster's
  /// in-flight requests (Envoy's retry_budget). 0 disables the budget and
  /// falls back to pure max_retries accounting.
  double retry_budget = 0.0;
  /// Floor below which the budget never bites, so low-traffic clusters
  /// can still retry at all.
  std::uint32_t retry_budget_min_concurrency = 3;

  /// Whether a 503 carrying the x-mesh-shed marker (the upstream's
  /// admission controller shed the request) is retryable. Off by
  /// default: retrying into a declared overload only amplifies it, and
  /// any retry that does go out re-enters admission like a fresh
  /// arrival (preferred shed victim).
  bool retry_on_overloaded = false;
};

/// Next retry sleep for attempt number `attempt` (1-based: the first
/// retry passes 1). With jitter disabled this is the legacy linear
/// `base * attempt`; with jitter it is AWS-style decorrelated jitter,
/// where `prev` is the previous sleep (0 on the first retry). Both are
/// clamped to [backoff_base, backoff_max].
sim::Duration next_retry_backoff(const RetryPolicy& policy, int attempt,
                                 sim::Duration prev, sim::RngStream& rng);

// Certificate lives in mesh/tls_session.h (the TLS layer consumes it
// directly); it is re-exported here for the many existing includers.

struct ClusterSpec {
  std::string name;
  std::vector<cluster::Endpoint> endpoints;
  LbPolicy lb = LbPolicy::kRoundRobin;
  CircuitBreakerConfig breaker;
  /// When a subset constraint matches no endpoint, fall back to the full
  /// healthy set instead of failing (Envoy's ANY_ENDPOINT fallback).
  bool subset_fallback = true;
  /// Active health checking for this cluster's endpoints (off by default;
  /// the chaos experiments turn it on).
  HealthCheckConfig health_check;
  /// Initiate mTLS to this cluster's sidecars (compiled by the control
  /// plane from the mesh-wide default + per-service overrides).
  bool mtls = false;
};

/// Per-traffic-class transport policy — where the cross-layer design
/// attaches scavenger congestion control and DSCP marks to mesh classes.
struct TrafficClassPolicy {
  transport::CcAlgorithm cc = transport::CcAlgorithm::kReno;
  net::Dscp dscp = net::Dscp::kDefault;
};

struct SidecarConfig {
  std::string service_name;
  net::Port app_port = 8080;       ///< 0 = no local app (gateway).
  net::Port inbound_port = 15006;
  net::Port outbound_port = 15001;
  bool gateway_mode = false;

  /// Control-plane config generation this snapshot was compiled from.
  /// Monotonically increasing; a sidecar rejects pushes older than what
  /// it already runs. 0 means "unversioned" (construction defaults and
  /// direct test pokes) and always applies.
  std::uint64_t epoch = 0;

  /// This workload's identity certificate; rotation arrives as a config
  /// push with a new serial.
  Certificate identity_cert;

  /// TLS session-layer knobs. `tls.enabled` here means "this sidecar's
  /// inbound listener accepts TLS" (the listener stays permissive:
  /// plaintext peers and health probes are sniffed through); whether a
  /// *client* initiates TLS is per-cluster (ClusterSpec::mtls).
  TlsParams tls;

  /// Host header -> cluster name. Hosts not listed route to the cluster
  /// with the same name, if one exists.
  std::map<std::string, std::string, std::less<>> routes;
  std::map<std::string, ClusterSpec, std::less<>> clusters;

  RetryPolicy retry;
  sim::Duration request_timeout = sim::seconds(15);

  /// Priority-aware overload control on the inbound path (off by
  /// default). The controller is created on the first config push that
  /// enables it; later pushes keep the running controller's state.
  AdmissionConfig admission;

  /// Destination-service allow-lists (mTLS-style authorization policy):
  /// if this sidecar's service has an entry, only the listed source
  /// services may call it. No entry = allow all.
  std::map<std::string, std::vector<std::string>> authorization;

  std::map<TrafficClass, TrafficClassPolicy> class_policies;
  std::uint32_t transport_mss = 1460;
  std::size_t max_pool_connections = 256;

  /// Proxy processing cost per traversal direction (request and response
  /// each pay base + Exp(jitter)); models Envoy's userspace overhead,
  /// which the paper (§3.6) quotes at ~3 ms p99 for a sidecar pair.
  sim::Duration proxy_overhead_base = sim::microseconds(150);
  sim::Duration proxy_overhead_jitter = sim::microseconds(100);

  /// Observes every upstream transport connection the sidecar opens,
  /// tagged with its traffic class (cross-layer SDN advertisement hook).
  std::function<void(transport::Connection&, TrafficClass)>
      upstream_connection_hook;
};

/// Sanity-checks a compiled config before it replaces the running one.
/// Returns an empty string when valid, else a human-readable reason —
/// the sidecar nacks the push and keeps its last-good config (the
/// control plane rolls back on nack).
std::string validate_config(const SidecarConfig& config);

/// Structural fingerprint of a compiled config. Epoch is excluded (two
/// epochs with identical payloads hash equal, which is what lets the
/// control plane skip no-op pushes); the certificate serial is included
/// so rotation propagates as a real push. Hooks contribute only their
/// presence (std::function has no stable content identity). Composed
/// from hash_policy_section + per-cluster hash_cluster_spec, so the
/// delta push (mesh/config_delta.h) diffs with the same fingerprints
/// the no-op skip uses.
std::uint64_t hash_sidecar_config(const SidecarConfig& config);

/// Fingerprint of one cluster's spec (endpoints, LB, breaker, health
/// check) — the unit of change a ConfigDelta upserts.
std::uint64_t hash_cluster_spec(const ClusterSpec& spec);

/// Fingerprint of everything in a config that is neither a cluster nor a
/// route (identity, retry, timeouts, admission, authz, transport, cert).
std::uint64_t hash_policy_section(const SidecarConfig& config);

struct ConfigDelta;  // mesh/config_delta.h

struct SidecarStats {
  std::uint64_t inbound_requests = 0;
  std::uint64_t outbound_requests = 0;
  std::uint64_t upstream_retries = 0;
  std::uint64_t upstream_failures = 0;   ///< exhausted retries
  std::uint64_t local_responses = 0;     ///< filter short-circuits
  std::uint64_t timeouts = 0;
  std::uint64_t retries_denied_by_budget = 0;
  /// Retryable failures not retried because the upstream declared
  /// overload (x-mesh-shed) and retry_on_overloaded is off.
  std::uint64_t retries_suppressed_by_overload = 0;
  std::uint64_t health_probes_answered = 0;
  /// Downstream connections that closed while a request was in flight;
  /// the abandoned request is finished as a local 499 so its span and
  /// telemetry sample still close (the finish_outbound funnel).
  std::uint64_t downstream_aborts = 0;
  std::uint64_t configs_applied = 0;
  std::uint64_t configs_rejected = 0;  ///< invalid or stale-epoch pushes
  std::uint64_t deltas_applied = 0;    ///< incremental pushes applied
  /// Delta pushes refused because the base/target fingerprint did not
  /// match (the control plane falls back to a full push).
  std::uint64_t delta_mismatches = 0;
  /// Second-level panic picks: every health-admitted endpoint was
  /// breaker-rejected, so the pick fell back to the full endpoint set.
  std::uint64_t panic_picks = 0;

  /// Field-wise sum, for mesh-wide totals.
  SidecarStats& operator+=(const SidecarStats& s);
};

class Sidecar {
 public:
  Sidecar(sim::Simulator& sim, cluster::Pod& pod, Tracer& tracer,
          TelemetrySink* telemetry, SidecarConfig config);
  ~Sidecar();
  Sidecar(const Sidecar&) = delete;
  Sidecar& operator=(const Sidecar&) = delete;

  /// Opens the listeners. Call once after construction.
  void start();

  /// Replaces routing/cluster/policy state (an xDS push). Listener ports
  /// and service identity are fixed at construction. Returns false — and
  /// keeps the running config untouched — when the push is invalid
  /// (validate_config) or stale (an epoch the sidecar already moved
  /// past); `last_config_error()` then says why.
  bool apply_config(SidecarConfig config);

  /// Applies an incremental push (mesh/config_delta.h): reconstructs the
  /// full candidate from the running config + delta, verifies the
  /// base/target fingerprints, and funnels it through apply_config.
  /// Returns false on stale epoch, fingerprint mismatch
  /// ("delta-base-mismatch" / "delta-target-mismatch" — the control
  /// plane falls back to a full push) or validation failure.
  bool apply_config_delta(const ConfigDelta& delta);

  /// Config generation currently applied (0 until a versioned push).
  std::uint64_t config_epoch() const noexcept { return config_.epoch; }

  /// Why the most recent apply_config returned false; empty after a
  /// successful apply.
  const std::string& last_config_error() const noexcept {
    return last_config_error_;
  }

  FilterChain& inbound_filters() noexcept { return inbound_chain_; }
  FilterChain& outbound_filters() noexcept { return outbound_chain_; }

  const SidecarConfig& config() const noexcept { return config_; }
  cluster::Pod& pod() noexcept { return pod_; }
  const cluster::Pod& pod() const noexcept { return pod_; }
  const SidecarStats& stats() const noexcept { return stats_; }

  /// Outstanding upstream requests to one endpoint (used by the
  /// least-request balancer and exposed for tests).
  std::uint64_t active_requests_to(const std::string& pod_name) const;

  /// The breaker guarding one endpoint (created on first use).
  CircuitBreaker& breaker_for(const std::string& cluster_name,
                              const std::string& pod_name);

  /// The active health checker (created in start(); null before).
  HealthChecker* health_checker() noexcept { return health_checker_.get(); }

  /// The inbound admission controller (null until a pushed config
  /// enables admission).
  AdmissionController* admission_controller() noexcept {
    return admission_.get();
  }

 private:
  struct ServerSession {
    std::uint64_t id = 0;
    transport::Connection* conn = nullptr;
    std::unique_ptr<http::HttpParser> parser;
    /// Set once the first downstream byte arrives: a TLS ClientHello
    /// starts a server-side TLS channel, anything else stays plaintext.
    bool sniffed = false;
    std::shared_ptr<TlsChannel> tls;
    FilterDirection direction = FilterDirection::kInbound;
    /// Pipelined requests behind the busy one; empty (and unallocated)
    /// in the common one-at-a-time case.
    net::FifoRing<http::HttpRequest> pending;
    bool busy = false;
    // Upstream call state for the active request (HTTP/1.1 serializes one
    // request per downstream connection, so one set suffices).
    sim::EventId try_timer = sim::kInvalidEventId;
    HttpClientPool* upstream_pool = nullptr;
    HttpClientPool::RequestId upstream_req = 0;
    std::string upstream_cluster;
    std::string upstream_endpoint;
    sim::Time deadline = 0;
    sim::EventId deadline_timer = sim::kInvalidEventId;
    // Bumped on every response; async timers and backoff wakeups captured
    // for an earlier request compare against it and stand down.
    std::uint64_t request_seq = 0;
    // The in-flight request's context while busy, so a downstream close
    // can still finish the request (and its span) through the
    // finish_outbound funnel.
    std::shared_ptr<RequestContext> active;
  };

  struct PoolKey {
    net::IpAddress ip;
    net::Port port;
    TrafficClass traffic_class;
    bool tls;
    auto operator<=>(const PoolKey&) const = default;
  };

  using Ctx = std::shared_ptr<RequestContext>;

  void accept_session(transport::Connection& conn, FilterDirection direction);
  void on_session_request(std::uint64_t session_id, http::HttpRequest req);
  void pump_session(ServerSession& session);
  void process_request(std::uint64_t session_id, http::HttpRequest req,
                       FilterDirection direction);
  void process_request_now(std::uint64_t session_id, Ctx ctx);
  sim::Duration proxy_delay();
  void respond_to_session(std::uint64_t session_id, const Ctx& ctx,
                          http::HttpResponse response);
  void continue_request(std::uint64_t session_id, Ctx ctx,
                        FilterDirection direction);
  void forward_to_app(std::uint64_t session_id, Ctx ctx);
  void route_and_forward(std::uint64_t session_id, Ctx ctx);
  /// Single exit point for outbound requests: records telemetry (when an
  /// upstream cluster is known) and the access log, runs the outbound
  /// response filters — closing the request span on every path — and
  /// answers the downstream session.
  void finish_outbound(std::uint64_t session_id, const Ctx& ctx,
                       const std::string& cluster_name,
                       const std::string& endpoint_pod,
                       http::HttpResponse response);
  void sync_health_targets();
  void attempt_upstream(std::uint64_t session_id, Ctx ctx);
  void on_request_deadline(std::uint64_t session_id, Ctx ctx,
                           std::uint64_t seq);
  void on_upstream_result(std::uint64_t session_id, Ctx ctx,
                          const std::string& cluster_name,
                          const std::string& endpoint_pod,
                          std::optional<http::HttpResponse> response,
                          const std::string& error);
  const ClusterSpec* resolve_cluster(std::string_view host) const;
  void eligible_endpoints(const ClusterSpec& spec, const RequestContext& ctx,
                          bool ignore_health,
                          std::vector<const cluster::Endpoint*>& out);
  HttpClientPool& pool_for(const cluster::Endpoint& endpoint,
                           TrafficClass traffic_class, net::Port port,
                           bool mtls);
  /// Feeds downstream bytes (decrypted when the session is TLS) and any
  /// length-only tail into the session's HTTP parser, aborting the
  /// connection on a parse error.
  void feed_session_parser(ServerSession& session, std::string_view data,
                           std::size_t tail = 0);
  /// Upgrades an inbound session to TLS (a ClientHello was sniffed).
  void setup_server_tls(ServerSession& session);
  /// Lazily created shared TLS state (ticket cache, tls_* series); only
  /// meshes that actually enable mTLS ever create it, so legacy metric
  /// snapshots stay byte-identical.
  TlsRuntime& tls_runtime();
  LoadBalancer& balancer_for(const ClusterSpec& spec);
  transport::ConnectionOptions connection_options_for(
      TrafficClass traffic_class) const;
  http::HttpResponse make_local_response(int status, std::string_view body);

  sim::Simulator& sim_;
  cluster::Pod& pod_;
  Tracer& tracer_;
  TelemetrySink* telemetry_;
  SidecarConfig config_;
  FilterChain inbound_chain_;
  FilterChain outbound_chain_;
  SidecarStats stats_;

  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<ServerSession>> sessions_;
  std::map<PoolKey, std::unique_ptr<HttpClientPool>> pools_;
  std::unique_ptr<HttpClientPool> app_pool_;
  std::map<std::string, std::unique_ptr<LoadBalancer>> balancers_;
  std::map<std::string, std::uint64_t> active_per_endpoint_;
  std::map<std::string, CircuitBreaker> breakers_;
  std::unique_ptr<HealthChecker> health_checker_;
  /// Per-cluster in-flight upstream tries, and how many are retry tries
  /// (attempt > 0) — the denominator/numerator of the retry budget.
  std::map<std::string, std::uint64_t> inflight_per_cluster_;
  std::map<std::string, std::uint64_t> inflight_retries_per_cluster_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<TlsRuntime> tls_runtime_;
  sim::RngStream overhead_rng_;
  sim::RngStream retry_rng_;
  std::string last_config_error_;
  bool started_ = false;
  /// attempt_upstream's candidate lists, reused across requests.
  std::vector<const cluster::Endpoint*> candidates_scratch_;
  std::vector<const cluster::Endpoint*> pick_scratch_;
  std::string breaker_key_;  ///< breaker_for's lookup key, reused
};

}  // namespace meshnet::mesh
