#pragma once

// HTTP/1.1-style request and response messages. A body is real bytes
// (`body`) followed by `body_tail` length-only bytes that count on the
// wire but never exist in memory (net/payload.h); bulk application
// responses are all tail, error texts and test bodies all real. The
// codec (codec.h) turns messages into wire payloads and back.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "http/header_map.h"

namespace meshnet::http {

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  HeaderMap headers;
  std::string body;
  std::size_t body_tail = 0;

  std::size_t body_size() const noexcept { return body.size() + body_tail; }

  /// Convenience accessors for the headers the mesh manipulates.
  std::string_view request_id() const {
    return headers.get_or(headers::Id::kRequestId, "");
  }
  void set_request_id(std::string_view id) {
    headers.set(headers::Id::kRequestId, id);
  }
};

struct HttpResponse {
  int status = 200;
  HeaderMap headers;
  std::string body;
  std::size_t body_tail = 0;

  std::size_t body_size() const noexcept { return body.size() + body_tail; }
  bool ok() const noexcept { return status >= 200 && status < 300; }
};

/// Reason phrases for the subset of statuses the mesh generates.
std::string_view status_text(int status) noexcept;

/// Fresh unique request id ("req-<counter>-<hex>"). Deterministic across a
/// run given the same call sequence; the counter is thread-local, so
/// simulations running concurrently on different threads (sweep points)
/// draw the same sequences they would single-threaded.
std::string generate_request_id();

/// Room for any generate_request_id() value.
inline constexpr std::size_t kRequestIdBytes = 48;

/// As generate_request_id(), written into `buffer` without allocating;
/// returns the id's bytes in `buffer`.
std::string_view generate_request_id(char (&buffer)[kRequestIdBytes]);

/// Resets the calling thread's request-id counter (experiments call this
/// at start so repeated runs in one process produce identical ids).
void reset_request_id_counter();

}  // namespace meshnet::http
