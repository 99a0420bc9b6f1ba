#include "http/codec.h"

#include <tuple>
#include <utility>

#include "util/strings.h"

namespace meshnet::http {

namespace {
constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHttpVersion = "HTTP/1.1";

void append_headers(std::string& out, const HeaderMap& headers,
                    std::size_t body_size) {
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (headers.id_at(i) == headers::Id::kContentLength) {
      continue;  // always emit an accurate one below
    }
    out.append(headers.name_at(i))
        .append(": ")
        .append(headers.value_at(i))
        .append(kCrlf);
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

HttpParser::HttpParser(ParserKind kind) : kind_(kind) {
  if (kind_ == ParserKind::kResponse) message_ = HttpResponse{};
}

void HttpParser::reset() {
  state_ = State::kHead;
  error_ = ParserError::kNone;
  head_buffer_.clear();
  body_.clear();
  body_tail_ = 0;
  body_expected_ = 0;
  if (kind_ == ParserKind::kRequest) {
    message_ = HttpRequest{};
  } else {
    message_ = HttpResponse{};
  }
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
      const std::optional<std::string_view> head = take_head(data);
      if (!head) {
        if (head_buffer_.size() > kMaxHeadBytes) {
          fail(ParserError::kHeadTooLarge);
        }
        continue;
      }
      parse_head(*head);
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

std::optional<std::string_view> HttpParser::take_head(std::string_view& data) {
  const std::size_t buffered = head_buffer_.size();
  if (buffered == 0) {
    // The common case: the whole head is in this chunk, parsed in place.
    const std::size_t end = data.find("\r\n\r\n");
    if (end != std::string_view::npos) {
      const std::string_view head = data.substr(0, end);
      data.remove_prefix(end + 4);
      return head;
    }
  }
  // A head split across chunks accumulates here. The terminator may
  // straddle the seam, so search from just before it.
  head_buffer_.append(data);
  const std::size_t end =
      head_buffer_.find("\r\n\r\n", buffered < 3 ? 0 : buffered - 3);
  if (end == std::string::npos) {
    data = {};
    return std::nullopt;
  }
  data.remove_prefix(end + 4 - buffered);
  head_buffer_.resize(end);
  return std::string_view(head_buffer_);
}

void HttpParser::parse_head(std::string_view head) {
  // Split the head into lines; the first is the start line.
  const std::size_t first_eol = head.find("\r\n");
  const std::string_view start_line =
      first_eol == std::string_view::npos ? head : head.substr(0, first_eol);
  if (!parse_start_line(start_line)) return;

  // emit_message() and reset() leave the message being built empty.
  HeaderMap& headers = std::visit(
      [](auto& message) -> HeaderMap& { return message.headers; }, message_);
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

namespace {
/// The space-separated field of `line` starting at `from`, and the index
/// just past it (npos at the end of the line).
std::pair<std::string_view, std::size_t> field_at(std::string_view line,
                                                  std::size_t from) {
  const std::size_t space = line.find(' ', from);
  if (space == std::string_view::npos) {
    return {line.substr(from), std::string_view::npos};
  }
  return {line.substr(from, space - from), space + 1};
}
}  // namespace

bool HttpParser::parse_start_line(std::string_view line) {
  const auto [first, after_first] = field_at(line, 0);
  std::string_view second;
  std::size_t after_second = std::string_view::npos;
  if (after_first != std::string_view::npos) {
    std::tie(second, after_second) = field_at(line, after_first);
  }
  if (kind_ == ParserKind::kRequest) {
    // METHOD SP PATH SP VERSION
    if (after_second == std::string_view::npos || first.empty() ||
        second.empty() ||
        !util::starts_with(line.substr(after_second), "HTTP/")) {
      fail(ParserError::kBadStartLine);
      return false;
    }
    HttpRequest& request = std::get<HttpRequest>(message_);
    request.method.assign(first);
    request.path.assign(second);
    return true;
  }
  // VERSION SP STATUS SP REASON...
  if (after_first == std::string_view::npos ||
      !util::starts_with(first, "HTTP/")) {
    fail(ParserError::kBadStartLine);
    return false;
  }
  const auto status = util::parse_u64(second);
  if (!status || *status < 100 || *status > 599) {
    fail(ParserError::kBadStartLine);
    return false;
  }
  std::get<HttpResponse>(message_).status = static_cast<int>(*status);
  return true;
}

void HttpParser::emit_message() {
  ++parsed_;
  if (auto* request = std::get_if<HttpRequest>(&message_)) {
    request->body = std::move(body_);
    request->body_tail = body_tail_;
    body_.clear();
    if (on_request_) on_request_(std::move(*request));
    *request = HttpRequest{};
  } else {
    auto& response = std::get<HttpResponse>(message_);
    response.body = std::move(body_);
    response.body_tail = body_tail_;
    body_.clear();
    if (on_response_) on_response_(std::move(response));
    response = HttpResponse{};
  }
  body_tail_ = 0;
  body_expected_ = 0;
}

}  // namespace meshnet::http
