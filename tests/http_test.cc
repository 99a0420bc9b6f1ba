// Tests for the HTTP message model and wire codec.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "http/codec.h"
#include "http/header_map.h"
#include "http/message.h"
#include "sim/random.h"
#include "util/strings.h"

namespace meshnet::http {
namespace {

TEST(HeaderMap, SetAndGet) {
  HeaderMap map;
  map.set("Host", "frontend");
  EXPECT_EQ(map.get("host").value_or(""), "frontend");
  EXPECT_EQ(map.get("HOST").value_or(""), "frontend");
  EXPECT_FALSE(map.get("missing").has_value());
}

TEST(HeaderMap, NamesStoredLowercase) {
  HeaderMap map;
  map.set("X-Request-ID", "abc");
  EXPECT_EQ(map.name_at(0), "x-request-id");
}

TEST(HeaderMap, SetReplacesAllValues) {
  HeaderMap map;
  map.add("k", "1");
  map.add("k", "2");
  map.set("K", "3");
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.get("k").value_or(""), "3");
}

TEST(HeaderMap, AddKeepsDuplicates) {
  HeaderMap map;
  map.add("accept", "a");
  map.add("accept", "b");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get("accept").value_or(""), "a");  // first wins
}

TEST(HeaderMap, RemoveReturnsCount) {
  HeaderMap map;
  map.add("x", "1");
  map.add("x", "2");
  map.add("y", "3");
  EXPECT_EQ(map.remove("X"), 2u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.remove("x"), 0u);
}

TEST(HeaderMap, GetOrFallback) {
  HeaderMap map;
  EXPECT_EQ(map.get_or("a", "dflt"), "dflt");
  map.set("a", "v");
  EXPECT_EQ(map.get_or("a", "dflt"), "v");
}

TEST(HeaderMap, PreservesInsertionOrder) {
  HeaderMap map;
  map.add("c", "3");
  map.add("a", "1");
  map.add("b", "2");
  EXPECT_EQ(map.name_at(0), "c");
  EXPECT_EQ(map.name_at(1), "a");
  EXPECT_EQ(map.name_at(2), "b");
}

// ---- Interned well-known names ----------------------------------------

TEST(HeaderIntern, WellKnownNamesRoundTrip) {
  using headers::Id;
  const std::pair<std::string_view, Id> cases[] = {
      {headers::kContentLength, Id::kContentLength},
      {headers::kHost, Id::kHost},
      {headers::kRequestId, Id::kRequestId},
      {headers::kMeshPriority, Id::kMeshPriority},
      {headers::kTraceId, Id::kTraceId},
      {headers::kSpanId, Id::kSpanId},
      {headers::kParentSpanId, Id::kParentSpanId},
      {headers::kRetryAttempt, Id::kRetryAttempt},
      {headers::kMeshSource, Id::kMeshSource},
  };
  for (const auto& [name, id] : cases) {
    EXPECT_EQ(headers::intern(name), id) << name;
    EXPECT_EQ(headers::name_of(id), name);
  }
}

TEST(HeaderIntern, CaseInsensitiveAndUnknown) {
  EXPECT_EQ(headers::intern("Content-Length"), headers::Id::kContentLength);
  EXPECT_EQ(headers::intern("X-MESH-PRIORITY"), headers::Id::kMeshPriority);
  EXPECT_EQ(headers::intern("x-app"), headers::Id::kUnknown);
  EXPECT_EQ(headers::intern(""), headers::Id::kUnknown);
  // Same length as a well-known name but different bytes.
  EXPECT_EQ(headers::intern("content-lengtX"), headers::Id::kUnknown);
}

TEST(HeaderIntern, IdAndStringAccessorsAgree) {
  HeaderMap map;
  map.set("X-Mesh-Priority", "high");   // string set, mixed case
  map.set(headers::Id::kHost, "reviews");
  map.add("x-app", "frontend");

  EXPECT_EQ(map.get(headers::Id::kMeshPriority).value_or(""), "high");
  EXPECT_EQ(map.get("x-mesh-priority").value_or(""), "high");
  EXPECT_EQ(map.get(headers::Id::kHost).value_or(""), "reviews");
  EXPECT_EQ(map.get("Host").value_or(""), "reviews");
  EXPECT_TRUE(map.has(headers::Id::kMeshPriority));
  EXPECT_FALSE(map.has(headers::Id::kRetryAttempt));

  // id_at mirrors name_at order; unknown names intern to kUnknown.
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.id_at(0), headers::Id::kMeshPriority);
  EXPECT_EQ(map.id_at(1), headers::Id::kHost);
  EXPECT_EQ(map.id_at(2), headers::Id::kUnknown);

  // Id-keyed set overwrites the string-keyed entry and vice versa.
  map.set(headers::Id::kMeshPriority, "low");
  EXPECT_EQ(map.get("x-mesh-priority").value_or(""), "low");
  map.set("host", "ratings");
  EXPECT_EQ(map.get(headers::Id::kHost).value_or(""), "ratings");

  EXPECT_EQ(map.remove(headers::Id::kHost), 1u);
  EXPECT_FALSE(map.has("host"));
}

TEST(HeaderIntern, SerializedNamesAreCanonicalLowercase) {
  HttpRequest request;
  request.headers.set("X-Mesh-Priority", "high");
  request.headers.set(headers::Id::kHost, "reviews");
  const std::string wire = serialize_request(request).materialize();
  EXPECT_NE(wire.find("x-mesh-priority: high"), std::string::npos);
  EXPECT_NE(wire.find("host: reviews"), std::string::npos);
}

TEST(Message, RequestIdAccessors) {
  HttpRequest req;
  EXPECT_EQ(req.request_id(), "");
  req.set_request_id("req-1");
  EXPECT_EQ(req.request_id(), "req-1");
  EXPECT_EQ(req.headers.get_or(headers::kRequestId, ""), "req-1");
}

TEST(Message, GenerateRequestIdIsUnique) {
  reset_request_id_counter();
  const std::string a = generate_request_id();
  const std::string b = generate_request_id();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("req-", 0), 0u);
}

TEST(Message, ResetRequestIdCounterRepeats) {
  reset_request_id_counter();
  const std::string a = generate_request_id();
  reset_request_id_counter();
  EXPECT_EQ(generate_request_id(), a);
}

TEST(Message, StatusText) {
  EXPECT_EQ(status_text(200), "OK");
  EXPECT_EQ(status_text(503), "Service Unavailable");
  EXPECT_EQ(status_text(418), "Unknown");
  EXPECT_TRUE((HttpResponse{204, {}, {}}.ok()));
  EXPECT_FALSE((HttpResponse{500, {}, {}}.ok()));
}

TEST(Codec, SerializeRequestBasics) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/submit";
  req.headers.set("host", "svc");
  req.body = "hello";
  const std::string wire = serialize_request(req).materialize();
  EXPECT_EQ(wire.rfind("POST /submit HTTP/1.1\r\n", 0), 0u);
  EXPECT_NE(wire.find("host: svc\r\n"), std::string::npos);
  EXPECT_NE(wire.find("content-length: 5\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(Codec, SerializeResponseBasics) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "nope";
  const std::string wire = serialize_response(resp).materialize();
  EXPECT_EQ(wire.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(wire.find("content-length: 4\r\n"), std::string::npos);
}

TEST(Codec, ContentLengthAlwaysAccurate) {
  HttpRequest req;
  req.headers.set("content-length", "999");  // stale; must be replaced
  req.body = "abc";
  const std::string wire = serialize_request(req).materialize();
  EXPECT_NE(wire.find("content-length: 3\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("999"), std::string::npos);
}

HttpRequest parse_one_request(const std::string& wire) {
  HttpParser parser(ParserKind::kRequest);
  HttpRequest out;
  parser.set_on_request([&](HttpRequest r) { out = std::move(r); });
  EXPECT_TRUE(parser.feed(wire));
  EXPECT_EQ(parser.messages_parsed(), 1u);
  return out;
}

TEST(Codec, RequestRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.path = "/product/7";
  req.headers.set("host", "frontend");
  req.headers.set("x-mesh-priority", "high");
  req.body = "payload-bytes";
  const HttpRequest parsed =
      parse_one_request(serialize_request(req).materialize());
  EXPECT_EQ(parsed.method, "GET");
  EXPECT_EQ(parsed.path, "/product/7");
  EXPECT_EQ(parsed.headers.get_or("host", ""), "frontend");
  EXPECT_EQ(parsed.headers.get_or("x-mesh-priority", ""), "high");
  EXPECT_EQ(parsed.body, "payload-bytes");
}

TEST(Codec, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 503;
  resp.headers.set("x-served-by", "sidecar");
  resp.body = std::string(10000, 'z');
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  EXPECT_TRUE(parser.feed(serialize_response(resp).materialize()));
  EXPECT_EQ(out.status, 503);
  EXPECT_EQ(out.headers.get_or("x-served-by", ""), "sidecar");
  EXPECT_EQ(out.body, resp.body);
}

TEST(Codec, EmptyBodyRoundTrip) {
  HttpRequest req;
  const HttpRequest parsed =
      parse_one_request(serialize_request(req).materialize());
  EXPECT_EQ(parsed.body, "");
}

// Property: parsing is chunking-invariant — any split of the wire bytes
// produces the same messages.
class ChunkedFeedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedFeedTest, ByteChunksParseIdentically) {
  const std::size_t chunk = GetParam();
  HttpRequest req;
  req.method = "PUT";
  req.path = "/a/b";
  req.headers.set("host", "x");
  req.body = std::string(777, 'q');
  const std::string wire = serialize_request(req).materialize();

  HttpParser parser(ParserKind::kRequest);
  std::vector<HttpRequest> messages;
  parser.set_on_request([&](HttpRequest r) { messages.push_back(std::move(r)); });
  for (std::size_t i = 0; i < wire.size(); i += chunk) {
    ASSERT_TRUE(parser.feed(std::string_view(wire).substr(
        i, std::min(chunk, wire.size() - i))));
  }
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].body, req.body);
  EXPECT_EQ(messages[0].path, "/a/b");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedFeedTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1024, 10000));

TEST(Codec, PipelinedMessagesInOneChunk) {
  HttpRequest a, b;
  a.path = "/first";
  a.body = "AAA";
  b.path = "/second";
  b.body = "BBBBBB";
  const std::string wire = serialize_request(a).materialize() +
                           serialize_request(b).materialize();
  HttpParser parser(ParserKind::kRequest);
  std::vector<HttpRequest> messages;
  parser.set_on_request([&](HttpRequest r) { messages.push_back(std::move(r)); });
  ASSERT_TRUE(parser.feed(wire));
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].path, "/first");
  EXPECT_EQ(messages[0].body, "AAA");
  EXPECT_EQ(messages[1].path, "/second");
  EXPECT_EQ(messages[1].body, "BBBBBB");
}

TEST(Codec, ManyPipelinedMessages) {
  std::string wire;
  for (int i = 0; i < 50; ++i) {
    HttpRequest r;
    r.path = "/n/" + std::to_string(i);
    r.body = std::string(static_cast<std::size_t>(i), 'x');
    wire += serialize_request(r).materialize();
  }
  HttpParser parser(ParserKind::kRequest);
  int count = 0;
  parser.set_on_request([&](HttpRequest) { ++count; });
  ASSERT_TRUE(parser.feed(wire));
  EXPECT_EQ(count, 50);
}

// ---- Length-only body tails ---------------------------------------------

TEST(Codec, TailBodySerializesAsLengthOnly) {
  HttpResponse resp;
  resp.body_tail = 1'600'000;
  const net::Payload wire = serialize_response(resp);
  EXPECT_EQ(wire.tail(), 1'600'000u);
  EXPECT_NE(wire.view().find("content-length: 1600000\r\n\r\n"),
            std::string_view::npos);
  EXPECT_EQ(wire.view().substr(wire.view().size() - 4), "\r\n\r\n");
}

// Feeds `wire` as consecutive slices of `segment` bytes (as a connection
// delivers MSS segments): each chunk's real bytes, then its tail.
template <typename Parser>
void feed_segments(Parser& parser, const net::Payload& wire,
                   std::size_t segment) {
  for (std::size_t offset = 0; offset < wire.size(); offset += segment) {
    const net::Payload chunk =
        wire.slice(offset, std::min(segment, wire.size() - offset));
    ASSERT_TRUE(parser.feed(chunk.view(), chunk.tail()));
  }
}

TEST(Codec, HeadEndingMidSegmentIsFollowedByTail) {
  HttpResponse resp;
  resp.headers.set("x-app", "ratings");
  resp.body = "abc";
  resp.body_tail = 5000;
  const net::Payload wire = serialize_response(resp);
  // The first segment holds the head, the body's real bytes and the start
  // of its tail.
  HttpParser parser(ParserKind::kResponse);
  std::vector<HttpResponse> out;
  parser.set_on_response([&](HttpResponse r) { out.push_back(std::move(r)); });
  feed_segments(parser, wire, wire.view().size() + 100);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].headers.get_or("x-app", ""), "ratings");
  EXPECT_EQ(out[0].body, "abc");
  EXPECT_EQ(out[0].body_tail, 5000u);
  EXPECT_EQ(out[0].body_size(), 5003u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(Codec, TailInHeadIsMalformed) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("GET / HTTP/1.1\r\nhost: a", 10));
  EXPECT_EQ(parser.error(), ParserError::kTailInHead);

  // Also between messages: a complete message, then a stray tail.
  HttpParser next(ParserKind::kRequest);
  int parsed = 0;
  next.set_on_request([&](HttpRequest) { ++parsed; });
  EXPECT_FALSE(next.feed(serialize_request(HttpRequest{}).view(), 1));
  EXPECT_EQ(parsed, 1);
  EXPECT_EQ(next.error(), ParserError::kTailInHead);
}

TEST(Codec, RealMessagePipelinedAfterTailMessage) {
  HttpResponse bulk;
  bulk.body_tail = 20'000;
  HttpResponse error;
  error.status = 502;
  error.body = "upstream dependency failed";
  HttpParser parser(ParserKind::kResponse);
  std::vector<HttpResponse> out;
  parser.set_on_response([&](HttpResponse r) { out.push_back(std::move(r)); });
  feed_segments(parser, serialize_response(bulk), 1460);
  feed_segments(parser, serialize_response(error), 1460);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].body, "");
  EXPECT_EQ(out[0].body_tail, 20'000u);
  EXPECT_EQ(out[1].status, 502);
  EXPECT_EQ(out[1].body, "upstream dependency failed");
  EXPECT_EQ(out[1].body_tail, 0u);
}

TEST(Codec, RealBytesAfterTailMaterializeIt) {
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed("HTTP/1.1 200 OK\r\ncontent-length: 6\r\n\r\na", 2));
  ASSERT_TRUE(parser.feed("bcd"));
  EXPECT_EQ(out.body, "axxbcd");
  EXPECT_EQ(out.body_tail, 0u);
}

TEST(Codec, BadStartLineSetsError) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("NOT-HTTP\r\n\r\n"));
  EXPECT_TRUE(parser.has_error());
  EXPECT_EQ(parser.error(), ParserError::kBadStartLine);
}

TEST(Codec, BadResponseStatusSetsError) {
  HttpParser parser(ParserKind::kResponse);
  EXPECT_FALSE(parser.feed("HTTP/1.1 9999 Weird\r\n\r\n"));
  EXPECT_EQ(parser.error(), ParserError::kBadStartLine);
}

TEST(Codec, HeaderWithoutColonSetsError) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("GET / HTTP/1.1\r\nbad header line\r\n\r\n"));
  EXPECT_EQ(parser.error(), ParserError::kBadHeader);
}

TEST(Codec, BadContentLengthSetsError) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(
      parser.feed("GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n"));
  EXPECT_EQ(parser.error(), ParserError::kBadContentLength);
}

TEST(Codec, OversizedHeadSetsError) {
  HttpParser parser(ParserKind::kRequest);
  std::string huge = "GET / HTTP/1.1\r\n";
  huge.append(HttpParser::kMaxHeadBytes + 1024, 'h');  // no terminator
  EXPECT_FALSE(parser.feed(huge));
  EXPECT_EQ(parser.error(), ParserError::kHeadTooLarge);
}

TEST(Codec, ErrorStateIgnoresFurtherInput) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("garbage\r\n\r\n"));
  EXPECT_FALSE(parser.feed("GET / HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(parser.messages_parsed(), 0u);
}

TEST(Codec, ResetRecoversFromError) {
  HttpParser parser(ParserKind::kRequest);
  int count = 0;
  parser.set_on_request([&](HttpRequest) { ++count; });
  EXPECT_FALSE(parser.feed("garbage\r\n\r\n"));
  parser.reset();
  EXPECT_FALSE(parser.has_error());
  EXPECT_TRUE(parser.feed("GET / HTTP/1.1\r\ncontent-length: 0\r\n\r\n"));
  EXPECT_EQ(count, 1);
}

TEST(Codec, HeaderValuesAreTrimmed) {
  HttpParser parser(ParserKind::kRequest);
  HttpRequest out;
  parser.set_on_request([&](HttpRequest r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed("GET / HTTP/1.1\r\nhost:   spaced   \r\n\r\n"));
  EXPECT_EQ(out.headers.get_or("host", ""), "spaced");
}

TEST(Codec, LargeBinaryBodySurvives) {
  HttpResponse resp;
  resp.body.resize(2 * 1024 * 1024);
  for (std::size_t i = 0; i < resp.body.size(); ++i) {
    resp.body[i] = static_cast<char>(i * 31 + 7);
  }
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed(serialize_response(resp).materialize()));
  EXPECT_EQ(out.body, resp.body);
}

// ----- Randomized round-trip fuzz: decode(encode(m)) == m for arbitrary
// messages, under arbitrary wire chunking and pipelining. -----

// Random trimmed header value: the parser strips surrounding whitespace,
// so values are generated with none (interior spaces are fair game).
std::string random_header_value(sim::RngStream& rng) {
  const std::size_t len = rng.uniform_int(0, 24);
  std::string value(len, '?');
  for (std::size_t i = 0; i < len; ++i) {
    const bool interior = i != 0 && i + 1 != len;
    // Printable ASCII minus CR/LF; spaces only in the interior.
    do {
      value[i] = static_cast<char>(rng.uniform_int(interior ? 0x20 : 0x21,
                                                   0x7e));
    } while (value[i] == ' ' && !interior);
  }
  return value;
}

// Random header name: lowercase (the parser canonicalizes to lowercase,
// so generating lowercase keeps equality exact), never content-length
// (the serializer owns that one).
std::string random_header_name(sim::RngStream& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789-";
  std::string name;
  do {
    const std::size_t len = rng.uniform_int(1, 16);
    name.assign(len, '?');
    for (std::size_t i = 0; i < len; ++i) {
      name[i] = kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
    }
  } while (name == headers::kContentLength);
  return name;
}

void fill_random_headers(HeaderMap& map, sim::RngStream& rng) {
  static constexpr headers::Id kWellKnown[] = {
      headers::Id::kHost,        headers::Id::kRequestId,
      headers::Id::kMeshPriority, headers::Id::kTraceId,
      headers::Id::kSpanId,      headers::Id::kParentSpanId,
      headers::Id::kRetryAttempt, headers::Id::kMeshSource,
      headers::Id::kDeadlineMs,  headers::Id::kShedReason,
  };
  const std::size_t count = rng.uniform_int(0, 8);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.bernoulli(0.5)) {
      // Interned fast path — including duplicates via add().
      const headers::Id id =
          kWellKnown[rng.uniform_int(0, std::size(kWellKnown) - 1)];
      map.add(headers::name_of(id), random_header_value(rng));
    } else {
      map.add(random_header_name(rng), random_header_value(rng));
    }
  }
}

// Body size classes: empty / tiny / medium / bulk, arbitrary bytes.
std::string random_body(sim::RngStream& rng) {
  std::size_t size = 0;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      size = 0;
      break;
    case 1:
      size = rng.uniform_int(1, 8);
      break;
    case 2:
      size = rng.uniform_int(100, 1000);
      break;
    default:
      size = rng.uniform_int(20000, 60000);
      break;
  }
  std::string body(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<char>(rng.uniform_int(0, 255));
  }
  return body;
}

HttpRequest random_request(sim::RngStream& rng) {
  static constexpr std::string_view kMethods[] = {"GET", "POST", "PUT",
                                                  "DELETE", "PATCH"};
  HttpRequest req;
  req.method = kMethods[rng.uniform_int(0, std::size(kMethods) - 1)];
  req.path = "/";
  for (std::uint64_t seg = rng.uniform_int(0, 3); seg > 0; --seg) {
    if (req.path.back() != '/') req.path += '/';
    for (std::uint64_t i = rng.uniform_int(1, 8); i > 0; --i) {
      req.path += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
  }
  fill_random_headers(req.headers, rng);
  req.body = random_body(rng);
  return req;
}

HttpResponse random_response(sim::RngStream& rng) {
  HttpResponse resp;
  resp.status = static_cast<int>(rng.uniform_int(100, 599));
  fill_random_headers(resp.headers, rng);
  resp.body = random_body(rng);
  return resp;
}

// Feeds `wire` to the parser in random-size chunks.
template <typename Parser>
void feed_in_random_chunks(Parser& parser, const std::string& wire,
                           sim::RngStream& rng) {
  std::size_t offset = 0;
  while (offset < wire.size()) {
    // Mix single bytes, small slivers, and big gulps so chunk edges land
    // in every parser state (start line, header line, CRLF, body).
    std::size_t chunk = 0;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        chunk = 1;
        break;
      case 1:
        chunk = rng.uniform_int(2, 40);
        break;
      default:
        chunk = rng.uniform_int(41, 30000);
        break;
    }
    chunk = std::min(chunk, wire.size() - offset);
    ASSERT_TRUE(parser.feed(std::string_view(wire).substr(offset, chunk)));
    offset += chunk;
  }
}

// The serializer owns content-length (rewrites it from the body), so the
// round-trip comparison normalizes it away on both sides.
HeaderMap without_content_length(const HeaderMap& map) {
  HeaderMap out = map;
  out.remove(headers::Id::kContentLength);
  return out;
}

TEST(CodecFuzz, RandomRequestsRoundTripUnderRandomChunking) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, "http-fuzz-request");
    std::vector<HttpRequest> originals;
    std::string wire;
    for (std::uint64_t i = rng.uniform_int(1, 3); i > 0; --i) {
      originals.push_back(random_request(rng));
      wire += serialize_request(originals.back()).materialize();
    }
    HttpParser parser(ParserKind::kRequest);
    std::vector<HttpRequest> parsed;
    parser.set_on_request(
        [&](HttpRequest r) { parsed.push_back(std::move(r)); });
    feed_in_random_chunks(parser, wire, rng);
    ASSERT_EQ(parsed.size(), originals.size());
    EXPECT_EQ(parser.buffered_bytes(), 0u);
    for (std::size_t i = 0; i < originals.size(); ++i) {
      EXPECT_EQ(parsed[i].method, originals[i].method);
      EXPECT_EQ(parsed[i].path, originals[i].path);
      EXPECT_EQ(parsed[i].body, originals[i].body);
      EXPECT_EQ(without_content_length(parsed[i].headers),
                without_content_length(originals[i].headers));
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

// Property: a message parses the same whether it arrives as materialized
// bytes or as its payload split at random points; the payload form keeps
// the real/tail split exactly.
TEST(CodecFuzz, PayloadChunksParseLikeMaterializedBytes) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, "http-fuzz-payload");
    std::vector<HttpResponse> originals;
    std::vector<net::Payload> payloads;
    std::string bytes;
    for (std::uint64_t i = rng.uniform_int(1, 3); i > 0; --i) {
      HttpResponse resp = random_response(rng);
      if (rng.bernoulli(0.7)) resp.body_tail = rng.uniform_int(1, 200'000);
      payloads.push_back(serialize_response(resp));
      bytes += payloads.back().materialize();
      originals.push_back(std::move(resp));
    }
    HttpParser from_bytes(ParserKind::kResponse);
    std::vector<HttpResponse> materialized;
    from_bytes.set_on_response(
        [&](HttpResponse r) { materialized.push_back(std::move(r)); });
    feed_in_random_chunks(from_bytes, bytes, rng);

    HttpParser from_payloads(ParserKind::kResponse);
    std::vector<HttpResponse> parsed;
    from_payloads.set_on_response(
        [&](HttpResponse r) { parsed.push_back(std::move(r)); });
    for (const net::Payload& wire : payloads) {
      std::size_t offset = 0;
      while (offset < wire.size()) {
        const std::size_t len = std::min<std::size_t>(
            rng.uniform_int(1, 3000), wire.size() - offset);
        const net::Payload chunk = wire.slice(offset, len);
        ASSERT_TRUE(from_payloads.feed(chunk.view(), chunk.tail()));
        offset += len;
      }
    }
    ASSERT_EQ(parsed.size(), originals.size());
    ASSERT_EQ(materialized.size(), originals.size());
    EXPECT_EQ(from_payloads.buffered_bytes(), 0u);
    for (std::size_t i = 0; i < originals.size(); ++i) {
      EXPECT_EQ(parsed[i].status, materialized[i].status);
      EXPECT_EQ(parsed[i].headers, materialized[i].headers);
      EXPECT_EQ(parsed[i].body_size(), materialized[i].body_size());
      EXPECT_EQ(parsed[i].body + std::string(parsed[i].body_tail, 'x'),
                materialized[i].body);
      EXPECT_EQ(parsed[i].body, originals[i].body);
      EXPECT_EQ(parsed[i].body_tail, originals[i].body_tail);
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

TEST(CodecFuzz, RandomResponsesRoundTripUnderRandomChunking) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, "http-fuzz-response");
    std::vector<HttpResponse> originals;
    std::string wire;
    for (std::uint64_t i = rng.uniform_int(1, 3); i > 0; --i) {
      originals.push_back(random_response(rng));
      wire += serialize_response(originals.back()).materialize();
    }
    HttpParser parser(ParserKind::kResponse);
    std::vector<HttpResponse> parsed;
    parser.set_on_response(
        [&](HttpResponse r) { parsed.push_back(std::move(r)); });
    feed_in_random_chunks(parser, wire, rng);
    ASSERT_EQ(parsed.size(), originals.size());
    EXPECT_EQ(parser.buffered_bytes(), 0u);
    for (std::size_t i = 0; i < originals.size(); ++i) {
      EXPECT_EQ(parsed[i].status, originals[i].status);
      EXPECT_EQ(parsed[i].body, originals[i].body);
      EXPECT_EQ(without_content_length(parsed[i].headers),
                without_content_length(originals[i].headers));
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

// ---- HeaderMap against a naive reference model --------------------------

// The map's documented behaviour, spelled out on a vector of
// (lowercase name, value) pairs.
class ReferenceHeaders {
 public:
  void add(std::string_view name, std::string_view value) {
    entries_.emplace_back(lower(name), std::string(value));
  }
  void set(std::string_view name, std::string_view value) {
    const std::string copy(value);  // `value` may alias a removed entry
    remove(name);
    add(name, copy);
  }
  std::size_t remove(std::string_view name) {
    const std::string key = lower(name);
    return std::erase_if(entries_,
                         [&](const auto& entry) { return entry.first == key; });
  }
  std::optional<std::string> get(std::string_view name) const {
    const std::string key = lower(name);
    for (const auto& [entry_name, value] : entries_) {
      if (entry_name == key) return value;
    }
    return std::nullopt;
  }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  static std::string lower(std::string_view name) {
    std::string out(name);
    for (char& c : out) c = util::to_lower_ascii(c);
    return out;
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

std::string random_case(std::string_view name, sim::RngStream& rng) {
  std::string out(name);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z' && rng.bernoulli(0.3)) {
      c = static_cast<char>(c - 'a' + 'A');
    }
  }
  return out;
}

// A name from a small pool (so operations collide): well-known and
// unknown names, in random case, and now and then the empty name.
std::string pooled_header_name(sim::RngStream& rng) {
  static constexpr std::string_view kNames[] = {
      headers::kHost,     headers::kRequestId, headers::kTraceId,
      headers::kSpanId,   headers::kMeshSource, headers::kContentLength,
      "x-app",            "accept",            "x-served-by",
      "x-very-long-custom-header-name-that-takes-arena-bytes", ""};
  return random_case(kNames[rng.uniform_int(0, std::size(kNames) - 1)], rng);
}

// Values from empty to well past the map's inline arena.
std::string sized_header_value(sim::RngStream& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return "";
    case 1:
      return random_header_value(rng);
    default: {
      std::string value(rng.uniform_int(1, rng.bernoulli(0.2) ? 600 : 60),
                        '?');
      for (char& c : value) c = static_cast<char>(rng.uniform_int(0x21, 0x7e));
      return value;
    }
  }
}

void expect_same(const HeaderMap& map, const ReferenceHeaders& ref) {
  ASSERT_EQ(map.size(), ref.entries().size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    EXPECT_EQ(map.name_at(i), ref.entries()[i].first) << "entry " << i;
    EXPECT_EQ(map.value_at(i), ref.entries()[i].second) << "entry " << i;
    EXPECT_EQ(map.id_at(i), headers::intern(ref.entries()[i].first));
  }
}

TEST(HeaderMapProperty, MatchesReferenceModelUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, "header-map-model");
    HeaderMap map;
    ReferenceHeaders ref;
    for (int step = 0; step < 120; ++step) {
      const std::string name = pooled_header_name(rng);
      const headers::Id id = headers::intern(name);
      switch (rng.uniform_int(0, 8)) {
        case 0:
        case 1: {
          const std::string value = sized_header_value(rng);
          map.add(name, value);
          ref.add(name, value);
          break;
        }
        case 2: {
          const std::string value = sized_header_value(rng);
          if (id != headers::Id::kUnknown && rng.bernoulli(0.5)) {
            map.set(id, value);
          } else {
            map.set(name, value);
          }
          ref.set(name, value);
          break;
        }
        case 3:
          EXPECT_EQ(id != headers::Id::kUnknown && rng.bernoulli(0.5)
                        ? map.remove(id)
                        : map.remove(name),
                    ref.remove(name));
          break;
        case 4: {
          const auto got = map.get(name);
          const auto want = ref.get(name);
          ASSERT_EQ(got.has_value(), want.has_value());
          if (got) {
            EXPECT_EQ(*got, *want);
          }
          if (id != headers::Id::kUnknown) {
            EXPECT_EQ(map.get(id), got);
          }
          EXPECT_EQ(map.get_or(name, "fallback"), want.value_or("fallback"));
          break;
        }
        case 5: {
          // Self-aliasing: the value is a view into this same map, maybe
          // of an entry the set() replaces.
          if (map.empty()) break;
          const std::size_t i = rng.uniform_int(0, map.size() - 1);
          const std::string_view value = map.value_at(i);
          const std::string expected(value);
          if (id != headers::Id::kUnknown) {
            map.set(id, value);
          } else {
            map.set(name, value);
          }
          ref.set(name, expected);
          break;
        }
        case 6: {
          // set(id, *get(other)) on the same map.
          const headers::Id other = headers::intern(pooled_header_name(rng));
          if (id == headers::Id::kUnknown || other == headers::Id::kUnknown) {
            break;
          }
          if (const auto value = map.get(other)) {
            const std::string expected(*value);
            map.set(id, *value);
            ref.set(name, expected);
          }
          break;
        }
        case 7: {
          // Copies: construct, assign over a different map, move.
          HeaderMap copy(map);
          HeaderMap assigned;
          assigned.add("x-stale", std::string(300, 's'));
          assigned = copy;
          HeaderMap moved(std::move(assigned));
          map = rng.bernoulli(0.5) ? moved : std::move(copy);
          break;
        }
        default:
          if (rng.bernoulli(0.1)) {
            map.clear();
            ref = ReferenceHeaders{};
          }
          break;
      }
      expect_same(map, ref);
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        return;
      }
    }
  }
}

// Header sets of any size and name case, including sets past the map's
// inline capacity, survive serialize -> parse at random split points.
TEST(CodecFuzz, LargeMixedCaseHeaderSetsRoundTripAtRandomSplits) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, "http-fuzz-large-heads");
    HttpRequest request;
    request.path = "/r/" + std::to_string(seed);
    HttpResponse response;
    response.status = 200;
    ReferenceHeaders expected;
    for (std::uint64_t i = rng.uniform_int(0, 40); i > 0; --i) {
      std::string name = pooled_header_name(rng);
      if (name.empty() ||
          headers::intern(name) == headers::Id::kContentLength) {
        name = random_case(random_header_name(rng), rng);
      }
      // Parsed values are trimmed: generate them without outer spaces.
      const std::string value =
          rng.bernoulli(0.5) ? random_header_value(rng)
                             : std::string(rng.uniform_int(0, 200), 'v');
      request.headers.add(name, value);
      response.headers.add(name, value);
      expected.add(name, value);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(request.headers, expected));
    const std::string request_wire = serialize_request(request).materialize();
    const std::string response_wire =
        serialize_response(response).materialize();

    HttpParser request_parser(ParserKind::kRequest);
    std::vector<HttpRequest> requests;
    request_parser.set_on_request(
        [&](HttpRequest r) { requests.push_back(std::move(r)); });
    feed_in_random_chunks(request_parser, request_wire + request_wire, rng);
    HttpParser response_parser(ParserKind::kResponse);
    std::vector<HttpResponse> responses;
    response_parser.set_on_response(
        [&](HttpResponse r) { responses.push_back(std::move(r)); });
    feed_in_random_chunks(response_parser, response_wire, rng);

    ASSERT_EQ(requests.size(), 2u);
    ASSERT_EQ(responses.size(), 1u);
    for (const HttpRequest& parsed : requests) {
      EXPECT_EQ(parsed.path, request.path);
      EXPECT_EQ(without_content_length(parsed.headers),
                without_content_length(request.headers));
    }
    EXPECT_EQ(without_content_length(responses[0].headers),
              without_content_length(response.headers));
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace meshnet::http
