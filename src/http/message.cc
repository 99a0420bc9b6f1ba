#include "http/message.h"

#include <cstdio>

namespace meshnet::http {

namespace {
// thread_local so concurrent sweep points (each a whole simulation running
// on one worker thread, see workload/sweep_runner.h) draw independent,
// reproducible id sequences: every experiment resets the counter at start
// and runs to completion on a single thread.
thread_local std::uint64_t g_request_counter = 0;
}  // namespace

std::string_view status_text(int status) noexcept {
  switch (status) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 408:
      return "Request Timeout";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 502:
      return "Bad Gateway";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

std::string_view generate_request_id(char (&buffer)[kRequestIdBytes]) {
  ++g_request_counter;
  const int n = std::snprintf(
      buffer, sizeof buffer, "req-%llu-%08llx",
      static_cast<unsigned long long>(g_request_counter),
      static_cast<unsigned long long>(g_request_counter *
                                      0x9e3779b97f4a7c15ULL >> 32));
  return {buffer, static_cast<std::size_t>(n)};
}

std::string generate_request_id() {
  char buffer[kRequestIdBytes];
  return std::string(generate_request_id(buffer));
}

void reset_request_id_counter() { g_request_counter = 0; }

}  // namespace meshnet::http
