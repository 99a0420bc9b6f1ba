#include "http/codec.h"

#include <utility>

#include "util/strings.h"

namespace meshnet::http {

namespace {
constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHttpVersion = "HTTP/1.1";

void append_headers(std::string& out, const HeaderMap& headers,
                    std::size_t body_size) {
  const auto& entries = headers.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (headers.id_at(i) == headers::Id::kContentLength) {
      continue;  // always emit an accurate one below
    }
    const auto& [name, value] = entries[i];
    out.append(name).append(": ").append(value).append(kCrlf);
  }
  out.append(headers::kContentLength)
      .append(": ")
      .append(std::to_string(body_size))
      .append(kCrlf);
  out.append(kCrlf);
}

// Heads are built in a per-thread scratch string and copied once into the
// payload's pooled block, so serializing does not allocate once warm.
std::string& scratch() {
  thread_local std::string buffer;
  buffer.clear();
  return buffer;
}

template <typename Message>
net::Payload finish(std::string& out, const Message& message) {
  append_headers(out, message.headers, message.body_size());
  out.append(message.body);
  return net::Payload::copy_of(out, message.body_tail);
}
}  // namespace

net::Payload serialize_request(const HttpRequest& request) {
  std::string& out = scratch();
  out.append(request.method)
      .append(" ")
      .append(request.path)
      .append(" ")
      .append(kHttpVersion)
      .append(kCrlf);
  return finish(out, request);
}

net::Payload serialize_response(const HttpResponse& response) {
  std::string& out = scratch();
  out.append(kHttpVersion)
      .append(" ")
      .append(std::to_string(response.status))
      .append(" ")
      .append(status_text(response.status))
      .append(kCrlf);
  return finish(out, response);
}

HttpParser::HttpParser(ParserKind kind) : kind_(kind) {}

void HttpParser::reset() {
  state_ = State::kHead;
  error_ = ParserError::kNone;
  head_buffer_.clear();
  body_.clear();
  body_tail_ = 0;
  body_expected_ = 0;
  request_ = HttpRequest{};
  response_ = HttpResponse{};
}

void HttpParser::fail(ParserError error) {
  state_ = State::kError;
  error_ = error;
}

bool HttpParser::feed(std::string_view data, std::size_t tail) {
  while ((!data.empty() || tail > 0) && state_ != State::kError) {
    if (state_ == State::kHead) {
      if (data.empty()) {
        fail(ParserError::kTailInHead);
        break;
      }
      // Accumulate until the blank line ending the head. To find the
      // terminator across chunk boundaries, search the tail of the
      // buffer after appending.
      const std::size_t buffered = head_buffer_.size();
      const std::size_t scan_from = buffered < 3 ? 0 : buffered - 3;
      head_buffer_.append(data);
      const std::size_t end = head_buffer_.find("\r\n\r\n", scan_from);
      if (end == std::string::npos) {
        data = {};
        if (head_buffer_.size() > kMaxHeadBytes) fail(ParserError::kHeadTooLarge);
        continue;
      }
      // Anything after the head belongs to the body (or the next message)
      // and goes round the state machine again.
      data.remove_prefix(end + 4 - buffered);
      head_buffer_.resize(end);
      parse_head();
      if (state_ == State::kError) return false;
      head_buffer_.clear();
      if (body_expected_ == 0) {
        emit_message();
        state_ = State::kHead;
      } else {
        state_ = State::kBody;
      }
      continue;
    }
    if (state_ == State::kBody) {
      const std::size_t need = body_expected_ - body_.size() - body_tail_;
      if (!data.empty()) {
        const std::size_t take = std::min(need, data.size());
        // The body keeps its real bytes first: real bytes after a tail
        // turn the tail into the 'x' bytes it stands for.
        if (body_tail_ > 0) body_.append(std::exchange(body_tail_, 0), 'x');
        if (body_.empty()) body_.reserve(need);
        body_.append(data.substr(0, take));
        data.remove_prefix(take);
      } else {
        const std::size_t take = std::min(need, tail);
        body_tail_ += take;
        tail -= take;
      }
      if (body_.size() + body_tail_ == body_expected_) {
        emit_message();
        state_ = State::kHead;
      }
    }
  }
  return state_ != State::kError;
}

void HttpParser::parse_head() {
  // Split the head into lines; the first is the start line.
  std::string_view head(head_buffer_);
  const std::size_t first_eol = head.find("\r\n");
  const std::string_view start_line =
      first_eol == std::string_view::npos ? head : head.substr(0, first_eol);
  if (!parse_start_line(start_line)) return;

  HeaderMap& headers =
      kind_ == ParserKind::kRequest ? request_.headers : response_.headers;
  headers = HeaderMap{};
  std::string_view remaining = first_eol == std::string_view::npos
                                   ? std::string_view{}
                                   : head.substr(first_eol + 2);
  while (!remaining.empty()) {
    std::size_t eol = remaining.find("\r\n");
    std::string_view line =
        eol == std::string_view::npos ? remaining : remaining.substr(0, eol);
    remaining = eol == std::string_view::npos
                    ? std::string_view{}
                    : remaining.substr(eol + 2);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      fail(ParserError::kBadHeader);
      return;
    }
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (name.empty()) {
      fail(ParserError::kBadHeader);
      return;
    }
    headers.add(name, value);
  }

  body_expected_ = 0;
  if (const auto cl = headers.get(headers::Id::kContentLength)) {
    const auto parsed = util::parse_u64(util::trim(*cl));
    if (!parsed) {
      fail(ParserError::kBadContentLength);
      return;
    }
    body_expected_ = static_cast<std::size_t>(*parsed);
  }
  body_.clear();
  body_tail_ = 0;
}

bool HttpParser::parse_start_line(std::string_view line) {
  const auto parts = util::split(line, ' ');
  if (kind_ == ParserKind::kRequest) {
    // METHOD SP PATH SP VERSION
    if (parts.size() < 3 || parts[0].empty() || parts[1].empty() ||
        !util::starts_with(parts[2], "HTTP/")) {
      fail(ParserError::kBadStartLine);
      return false;
    }
    request_ = HttpRequest{};
    request_.method = std::string(parts[0]);
    request_.path = std::string(parts[1]);
    return true;
  }
  // VERSION SP STATUS SP REASON...
  if (parts.size() < 2 || !util::starts_with(parts[0], "HTTP/")) {
    fail(ParserError::kBadStartLine);
    return false;
  }
  const auto status = util::parse_u64(parts[1]);
  if (!status || *status < 100 || *status > 599) {
    fail(ParserError::kBadStartLine);
    return false;
  }
  response_ = HttpResponse{};
  response_.status = static_cast<int>(*status);
  return true;
}

void HttpParser::emit_message() {
  ++parsed_;
  if (kind_ == ParserKind::kRequest) {
    request_.body = std::move(body_);
    request_.body_tail = body_tail_;
    body_.clear();
    if (on_request_) on_request_(std::move(request_));
    request_ = HttpRequest{};
  } else {
    response_.body = std::move(body_);
    response_.body_tail = body_tail_;
    body_.clear();
    if (on_response_) on_response_(std::move(response_));
    response_ = HttpResponse{};
  }
  body_tail_ = 0;
  body_expected_ = 0;
}

}  // namespace meshnet::http
