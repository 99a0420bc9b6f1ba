#pragma once

// HTTP/1.1 wire codec.
//
// serialize_*() produce a wire payload: the request/status line, the
// headers with an accurate Content-Length and the body's real bytes as
// real bytes, then the body's tail as a length-only tail, so a megabyte
// body serializes in O(head). HttpParser is an incremental push parser:
// feed it arbitrary chunks straight off a transport connection (real
// bytes, then any tail) and it emits complete messages, handling messages
// split across chunks and multiple pipelined messages inside one chunk.
// Tail bytes count into the body's tail; a head must be real bytes.
// Malformed input moves the parser into an error state that the caller
// can observe and reset.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "http/message.h"
#include "net/payload.h"

namespace meshnet::http {

net::Payload serialize_request(const HttpRequest& request);
net::Payload serialize_response(const HttpResponse& response);

enum class ParserKind { kRequest, kResponse };

enum class ParserError {
  kNone,
  kBadStartLine,
  kBadHeader,
  kBadContentLength,
  kHeadTooLarge,
  kTailInHead,  ///< length-only bytes where the start line or headers go
};

class HttpParser {
 public:
  using RequestHandler = std::function<void(HttpRequest)>;
  using ResponseHandler = std::function<void(HttpResponse)>;

  explicit HttpParser(ParserKind kind);

  void set_on_request(RequestHandler handler) {
    on_request_ = std::move(handler);
  }
  void set_on_response(ResponseHandler handler) {
    on_response_ = std::move(handler);
  }

  /// Consumes a chunk: real `data`, then `tail` length-only bytes.
  /// Returns false once the parser is in an error state (further input
  /// is ignored until reset()).
  bool feed(std::string_view data, std::size_t tail = 0);

  bool has_error() const noexcept { return error_ != ParserError::kNone; }
  ParserError error() const noexcept { return error_; }

  /// Number of complete messages emitted so far.
  std::uint64_t messages_parsed() const noexcept { return parsed_; }

  /// Bytes buffered waiting for more input.
  std::size_t buffered_bytes() const noexcept {
    return head_buffer_.size() + body_.size();
  }

  void reset();

  /// Upper bound on the head (start line + headers) before the parser
  /// rejects the message.
  static constexpr std::size_t kMaxHeadBytes = 64 * 1024;

 private:
  enum class State { kHead, kBody, kError };

  /// Takes the head (start line and headers, without the blank line)
  /// off the front of `data` once its terminator has arrived; until then
  /// buffers `data` and returns nullopt.
  std::optional<std::string_view> take_head(std::string_view& data);
  void parse_head(std::string_view head);
  bool parse_start_line(std::string_view line);
  void emit_message();
  void fail(ParserError error);

  ParserKind kind_;
  State state_ = State::kHead;
  ParserError error_ = ParserError::kNone;
  std::string head_buffer_;
  std::string body_;
  std::size_t body_tail_ = 0;
  std::size_t body_expected_ = 0;
  /// The message being parsed: a request or a response, by kind_ (one
  /// parser per connection end, so it holds only the one it parses).
  std::variant<HttpRequest, HttpResponse> message_;
  std::uint64_t parsed_ = 0;
  RequestHandler on_request_;
  ResponseHandler on_response_;
};

}  // namespace meshnet::http
