#pragma once

// Small non-cryptographic hashes for deterministic, order-independent
// choices: a value derived from (seed, key) by hashing does not depend on
// the order in which a simulation happens to ask for it.

#include <cstdint>
#include <string_view>

namespace meshnet::util {

/// The splitmix64 finalizer: a bijective 64-bit mix, so nearby inputs
/// (consecutive ids, seed ^ small int) land far apart.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 64-bit FNV-1a over the bytes of `text`.
constexpr std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace meshnet::util
