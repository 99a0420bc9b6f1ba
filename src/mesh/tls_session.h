#pragma once

// Simulated mTLS session layer for sidecar-to-sidecar transport
// (DESIGN.md §14). The simulator does not encrypt bytes; it models the
// *cost structure* of TLS 1.3 the way the MTLS report (arXiv:2411.02267)
// measures it: a full handshake spends one extra round trip on the link
// model plus asymmetric-crypto CPU at both ends (serialized per sidecar
// on the TlsRuntime's shared crypto clock — concurrent handshakes queue,
// which is what makes a mesh-wide reconnect wave a storm), a ticket
// resumption is 0-RTT early data plus a cheap key-schedule charge, and
// every application record pays a per-record + per-KiB AEAD compute
// charge on a per-direction busy-until clock (symmetric crypto
// parallelizes across worker threads, so it does not contend).
//
// The channel is deliberately decoupled from the transport: bytes go out
// through a wire sink callback and come in through on_wire_data(), so
// the state machine is drivable byte-by-byte from property tests and the
// codec fuzzer without a simulated network. The sidecar's inbound
// listener and the HTTP client pool are the only production owners —
// CI greps for constructions anywhere else.
//
// Identity rides the existing control-plane cert plumbing: the channel
// reads the owning sidecar's `identity_cert` through a stable pointer,
// so a rotation push is visible to the very next handshake without any
// pool rewiring, while established sessions keep their keys (real TLS
// does not rekey on cert rotation either). Session tickets are stateless
// and bound to the issuing cert's serial: rotation invalidates every
// outstanding ticket, which is exactly the resumption/rotation
// interaction the tests pin down.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "net/payload.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace meshnet::mesh {

/// A workload identity certificate (SPIFFE-flavoured). The simulation
/// does not encrypt bytes, but identity issuance/rotation is modelled so
/// policy has something real to hang off. Issued and rotated by the
/// control plane; delivered to sidecars inside the config push.
struct Certificate {
  std::uint64_t serial = 0;
  std::string spiffe_id;  ///< "spiffe://cluster.local/ns/default/sa/<svc>"
  sim::Time issued_at = 0;
  sim::Time expires_at = 0;

  bool valid_at(sim::Time now) const noexcept {
    return now >= issued_at && now < expires_at;
  }
};

/// Cost and policy knobs for the TLS session layer. Lives in
/// MeshPolicies (mesh-wide default, distributed in every config push)
/// and in SidecarConfig (whether *this* sidecar's inbound listener
/// accepts TLS). Defaults follow the MTLS report's measured shape:
/// multi-millisecond full handshakes dominated by asymmetric crypto,
/// tens-of-microseconds resumptions, single-digit-microsecond AEAD per
/// record.
struct TlsParams {
  /// Mesh-wide default for per-service mTLS (MeshPolicies) / whether this
  /// sidecar's inbound listener accepts TLS (SidecarConfig).
  bool enabled = false;
  /// Issue and accept session tickets (TLS 1.3 resumption).
  bool session_resumption = true;
  /// A handshake that has not established by this deadline fails cleanly
  /// (also the fuzzer's no-hang guarantee).
  sim::Duration handshake_timeout = sim::seconds(5);
  /// CPU charged by the server for a full handshake (cert signature +
  /// key exchange).
  sim::Duration handshake_cpu_server = sim::microseconds(1200);
  /// CPU charged by the client for a full handshake (signature verify +
  /// key exchange).
  sim::Duration handshake_cpu_client = sim::microseconds(900);
  /// CPU charged by either side for a ticket resumption (PSK key
  /// schedule only).
  sim::Duration handshake_cpu_resumed = sim::microseconds(60);
  /// AEAD charge per record, plus per KiB of record payload.
  sim::Duration aead_per_record = sim::microseconds(2);
  sim::Duration aead_per_kb = sim::microseconds(3);
  /// Maximum record body; larger app writes are segmented, larger
  /// received records are a protocol error (TLS 1.3's 16 KiB limit).
  std::size_t max_record_bytes = 16 * 1024;
  /// Bound on the per-sidecar client session-ticket cache (LRU).
  std::size_t session_cache_capacity = 1024;
  /// Tickets older than this are rejected (server-side check).
  sim::Duration ticket_lifetime = sim::seconds(3600);
};

// ---------------------------------------------------------------------------
// Record codec. Wire format: [type u8][length u24 BE][body]. Types follow
// TLS's content-type numbering where one exists.

enum class TlsRecordType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kFinished = 3,
  kAlert = 21,
  kAppData = 23,
};

bool is_known_tls_record_type(std::uint8_t type) noexcept;

/// Serializes one record whose body is `body` followed by `tail` 'x'
/// bytes (a length-only payload tail, materialized here) into a pooled
/// payload. The body must fit in 24 bits.
net::Payload encode_tls_record(TlsRecordType type, std::string_view body,
                               std::size_t tail = 0);

/// Incremental record deframer (same feed contract as http::HttpParser):
/// bytes in via feed(), complete records out via the handler, in order.
/// Unknown record types and oversized lengths put the parser in a sticky
/// error state and feed() returns false. Records wholly inside a chunk
/// are handed out in place; only a record split across chunks is copied.
class TlsRecordParser {
 public:
  using RecordHandler =
      std::function<void(TlsRecordType, std::string_view body)>;

  explicit TlsRecordParser(std::size_t max_body_bytes);

  void set_on_record(RecordHandler handler) { on_record_ = std::move(handler); }

  /// Returns false if the parser is (or enters) the error state.
  bool feed(std::string_view data);

  bool has_error() const noexcept { return !error_.empty(); }
  const std::string& error() const noexcept { return error_; }

  void reset();

 private:
  bool check_header(std::string_view record);
  static std::size_t record_body_bytes(std::string_view record);
  /// Hands a whole record to the handler; false once it set an error.
  bool deliver(std::string_view record);

  std::size_t max_body_bytes_;
  std::string buffer_;  ///< a record split across chunks, never more
  std::string error_;
  RecordHandler on_record_;
};

// ---------------------------------------------------------------------------
// Handshake message bodies. Fixed-width big-endian fields; decode is
// strict (exact length, no trailing bytes) and returns nullopt on any
// malformation.

struct TlsClientHello {
  std::uint64_t cert_serial = 0;
  sim::Time cert_expires_at = 0;
  std::string ticket;  ///< empty = no resumption attempt
};

struct TlsServerHello {
  std::uint64_t cert_serial = 0;
  sim::Time cert_expires_at = 0;
  bool resumed = false;
  std::string ticket;  ///< fresh ticket for the next connection; may be empty
};

/// Stateless session ticket: the server keeps nothing, validity is
/// checked against the *current* identity cert serial and the ticket
/// lifetime. Encodes to exactly 24 bytes.
struct TlsSessionTicket {
  std::uint64_t cert_serial = 0;
  sim::Time issued_at = 0;
  std::uint64_t nonce = 0;
};

std::string encode_client_hello(const TlsClientHello& hello);
std::optional<TlsClientHello> decode_client_hello(std::string_view body);
std::string encode_server_hello(const TlsServerHello& hello);
std::optional<TlsServerHello> decode_server_hello(std::string_view body);
std::string encode_session_ticket(const TlsSessionTicket& ticket);
std::optional<TlsSessionTicket> decode_session_ticket(std::string_view body);

// ---------------------------------------------------------------------------

/// Interned tls_* series (created on first TLS use, so meshes that never
/// enable mTLS keep byte-identical metric snapshots).
struct TlsMetrics {
  obs::Counter* handshakes_full = nullptr;
  obs::Counter* handshakes_resumed = nullptr;
  obs::Counter* handshake_failures = nullptr;
  obs::Counter* tickets_issued = nullptr;
  obs::Counter* resumptions_rejected = nullptr;
  obs::Counter* session_cache_evictions = nullptr;
  obs::Counter* records_encrypted = nullptr;
  obs::Counter* records_decrypted = nullptr;
  obs::Counter* bytes_encrypted = nullptr;
  obs::Counter* bytes_decrypted = nullptr;
  obs::Counter* alerts_sent = nullptr;
  obs::Histogram* handshake_ns = nullptr;
};

/// Bounded LRU of session tickets, keyed by the remote "ip:port". One
/// per sidecar (client side); capacity comes from
/// TlsParams::session_cache_capacity and evictions are counted.
class TlsSessionCache {
 public:
  explicit TlsSessionCache(std::size_t capacity,
                           obs::Counter* evictions = nullptr)
      : capacity_(capacity), evictions_(evictions) {}

  /// Stores (or refreshes) a ticket, evicting the least recently used
  /// entry when over capacity. Capacity 0 stores nothing.
  void put(const std::string& key, std::string ticket);

  /// Returns the cached ticket (refreshing recency) or "" when absent.
  std::string get(const std::string& key);

  bool contains(const std::string& key) const {
    return index_.find(key) != index_.end();
  }
  std::size_t size() const noexcept { return index_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Shrinks (evicting LRU entries) or grows the bound in place — a
  /// config push may retune it mid-run.
  void set_capacity(std::size_t capacity);

 private:
  void evict_to_capacity();

  std::size_t capacity_;
  /// Front = most recently used.
  std::list<std::pair<std::string, std::string>> lru_;
  std::map<std::string,
           std::list<std::pair<std::string, std::string>>::iterator,
           std::less<>>
      index_;
  obs::Counter* evictions_ = nullptr;
};

/// Per-sidecar TLS state shared by every channel the sidecar owns: the
/// interned tls_* series, the client ticket cache, and the ticket nonce
/// counter. Created lazily by the sidecar the first time TLS is actually
/// used; `registry` may be null (tests without telemetry), in which case
/// the series intern into a private registry so channel code never
/// branches.
class TlsRuntime {
 public:
  TlsRuntime(obs::MetricRegistry* registry, std::size_t cache_capacity);

  TlsMetrics& metrics() noexcept { return metrics_; }
  TlsSessionCache& session_cache() noexcept { return cache_; }
  std::uint64_t next_ticket_nonce() noexcept { return ++ticket_nonce_; }

  /// Serializes one asymmetric-crypto handshake job of `cost` on this
  /// runtime's owner: one sidecar has one crypto core, so concurrent
  /// handshakes queue behind each other. Returns the job's completion
  /// time (>= now + cost). AEAD record crypto deliberately does NOT go
  /// through this clock — symmetric crypto parallelizes across worker
  /// threads; the expensive asymmetric ops are what turn a mesh-wide
  /// reconnect wave into a handshake storm.
  sim::Time charge_handshake(sim::Time now, sim::Duration cost) {
    crypto_busy_until_ = std::max(now, crypto_busy_until_) + cost;
    return crypto_busy_until_;
  }

 private:
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  TlsMetrics metrics_;
  TlsSessionCache cache_;
  std::uint64_t ticket_nonce_ = 0;
  sim::Time crypto_busy_until_ = 0;
};

/// One TLS session endpoint. Owns the handshake state machine, the
/// record deframer, the AEAD/handshake cost accounting, and (client
/// side) the resumption attempt. Transport-agnostic: the owner supplies
/// a wire sink and feeds received bytes in; plaintext comes out of
/// set_on_plaintext in order.
///
/// Lifetime: always held in a std::shared_ptr (cost charging defers
/// delivery through simulator events that keep the channel alive);
/// owners call shutdown() when the underlying connection goes away.
class TlsChannel : public std::enable_shared_from_this<TlsChannel> {
 public:
  enum class Role : std::uint8_t { kClient, kServer };

  enum class State : std::uint8_t {
    kIdle,             ///< client: created, start() not yet called
    kWaitServerHello,  ///< client: ClientHello sent
    kWaitClientHello,  ///< server: created, nothing received
    kWaitFinished,     ///< server: full handshake, ServerHello sent
    kEstablished,
    kFailed,
  };

  using WireSink = std::function<void(net::Payload)>;
  using PlaintextHandler = std::function<void(std::string_view)>;
  using ErrorHandler = std::function<void(const std::string&)>;
  using StateObserver = std::function<void(State)>;

  /// `params` and `local_cert` must outlive the channel (both point into
  /// the owning sidecar's running config). `peer_key` identifies the
  /// remote for the ticket cache ("ip:port"); servers may pass "".
  TlsChannel(sim::Simulator& sim, Role role, const TlsParams* params,
             const Certificate* local_cert, TlsRuntime* runtime,
             std::string peer_key);
  ~TlsChannel();
  TlsChannel(const TlsChannel&) = delete;
  TlsChannel& operator=(const TlsChannel&) = delete;

  void set_send_wire(WireSink sink) { send_wire_ = std::move(sink); }
  void set_on_plaintext(PlaintextHandler h) { on_plaintext_ = std::move(h); }
  /// Delivered through a zero-delay event (never re-entrantly from
  /// inside a transport callback), once at most.
  void set_on_error(ErrorHandler h) { on_error_ = std::move(h); }
  /// Test hook: observes every state transition, in order.
  void set_state_observer(StateObserver h) { state_observer_ = std::move(h); }

  /// Client: sends the ClientHello (attaching a cached ticket when
  /// resumption is on) and arms the handshake timer. Server: arms the
  /// handshake timer. Call exactly once, after the sinks are wired.
  void start();

  /// Feed bytes received from the wire.
  void on_wire_data(std::string_view data);

  /// Queue plaintext for the peer; a length-only tail is written out as
  /// 'x' bytes into the records. Client side before establishment: sent
  /// as 0-RTT early data when a ticket was offered, buffered until the
  /// handshake completes otherwise.
  void send_app_data(net::Payload data);

  /// Detaches the channel from its owner: cancels timers, drops pending
  /// deliveries, and suppresses every callback. Idempotent.
  void shutdown();

  State state() const noexcept { return state_; }
  bool established() const noexcept { return state_ == State::kEstablished; }
  bool failed() const noexcept { return state_ == State::kFailed; }
  /// Established via ticket resumption.
  bool resumed() const noexcept { return resumed_; }
  const std::string& error() const noexcept { return error_; }
  Role role() const noexcept { return role_; }

 private:
  void transition(State next);
  void fail(const std::string& reason, bool send_alert);
  void on_record(TlsRecordType type, std::string_view body);
  void handle_client_hello(std::string_view body);
  void handle_server_hello(std::string_view body);
  void handle_finished();
  void handle_app_data(std::string_view body);
  void become_established();
  void encrypt_and_send(const net::Payload& data);
  void deliver_plaintext(std::string_view body);
  /// AEAD charge for one record of `body_bytes` payload.
  sim::Duration aead_cost(std::size_t body_bytes) const;
  /// Serializes `bytes` onto the wire after `cost` of compute, behind
  /// everything already queued in the send direction. Handshake CPU
  /// (`handshake_cpu`) additionally contends on the runtime's shared
  /// crypto clock (see TlsRuntime::charge_handshake).
  void queue_wire(net::Payload bytes, sim::Duration cost,
                  bool handshake_cpu = false);
  void cancel_timeout();

  sim::Simulator& sim_;
  Role role_;
  const TlsParams* params_;
  const Certificate* local_cert_;
  TlsRuntime* runtime_;
  std::string peer_key_;

  State state_;
  bool closed_ = false;
  bool resumed_ = false;
  bool offered_ticket_ = false;
  std::string error_;
  sim::Time handshake_start_ = 0;
  sim::EventId timeout_timer_ = sim::kInvalidEventId;

  /// Per-direction compute clocks: work is serialized behind what is
  /// already queued, never reordered.
  sim::Time tx_busy_until_ = 0;
  sim::Time rx_busy_until_ = 0;

  TlsRecordParser record_parser_;
  /// Client: plaintext queued while a full handshake is in flight.
  std::list<net::Payload> pending_app_;
  /// Server: early-data records received before the handshake finished
  /// (a rejected-ticket client has 0-RTT data already in flight; it is
  /// processed after Finished instead of being replayed).
  std::list<std::string> early_records_;

  WireSink send_wire_;
  PlaintextHandler on_plaintext_;
  ErrorHandler on_error_;
  StateObserver state_observer_;
};

std::string_view tls_state_name(TlsChannel::State state) noexcept;

}  // namespace meshnet::mesh
